"""Relational finite-state machinery on finite and bi-infinite words.

Subpackages:

- :mod:`relmach.relcore` -- alphabets, wire bundles, extensional relations
- :mod:`relmach.transducer` -- machines, transducers and their runs
- :mod:`relmach.automata` -- determinization, minimization, equivalence
- :mod:`relmach.simulation` -- simulation-certificate checking
- :mod:`relmach.sofic` -- presentations of sofic subshifts
- :mod:`relmach.diagram` -- string-diagram terms with feedback
- :mod:`relmach.cli` -- command-line front end
"""

from .relcore import Alphabet, MachineError, Obj, Rel, TypeMismatch, UNIT

__all__ = ["Alphabet", "MachineError", "Obj", "Rel", "TypeMismatch", "UNIT"]
__version__ = "0.1.0"
