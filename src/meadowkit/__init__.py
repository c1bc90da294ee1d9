"""meadowkit: Komori fields with totalized division, their punched
partial variants, configurable three-valued logics of partial
functions, and a linter for the relevant division convention."""

from . import carriers, lint, logic, parser, printer, semantics, terms

__version__ = "0.1.0"
