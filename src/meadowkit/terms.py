"""ASTs for meadow terms and first-order formulas over them.

Terms cover the inversive notation (with a postfix inverse) and the
divisive notation (with binary division); mixed terms are allowed and
can be translated into either pure notation.
"""

from __future__ import annotations


class Node:
    """The base of every term and formula node.

    A node class lists its fields in `__slots__`, in constructor order;
    its `__init__`, made once per class, sets each field once through the
    field's slot descriptor, and assigning a field afterwards raises
    AttributeError, so a node never changes.  `==` compares the class and
    every field, and `hash` and `repr` read them; all three walk with an
    explicit stack, so they work at any depth the parser accepts.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__dict__.get("__slots__", ())
        if not fields:  # Term, Formula, Zero and One: object's __init__
            return
        names = ", ".join(fields)
        values = "".join(f"self.{name}, " for name in fields)
        sets = "".join(f"\n    _set_{name}(self, {name})" for name in fields)
        namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in fields}
        exec(f"def __init__(self, {names}):{sets}\ndef _values(self):\n    return ({values})", namespace)
        cls.__init__, cls._values = namespace["__init__"], namespace["_values"]

    def _values(self) -> tuple:
        """The node's fields, in constructor order."""
        return ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of a {type(self).__name__} node")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            for x, y in zip(a._values(), b._values()):
                if isinstance(x, Node):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        # the classes and leaf fields in preorder: equal nodes give one sequence
        flat, stack = [], [self]
        while stack:
            u = stack.pop()
            if isinstance(u, Node):
                flat.append(type(u))
                stack.extend(reversed(u._values()))
            else:
                flat.append(u)
        return hash(tuple(flat))

    def __repr__(self):
        # the text of a node as a dataclass would print it: a str on the
        # stack is printed text, every leaf field is printed when pushed
        out, stack = [], [self]
        while stack:
            u = stack.pop()
            if type(u) is str:
                out.append(u)
                continue
            parts = [f"{type(u).__name__}("]
            for i, (name, value) in enumerate(zip(type(u).__slots__, u._values())):
                parts.append(f"{', ' if i else ''}{name}=")
                parts.append(value if isinstance(value, Node) else repr(value))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)


class Term(Node):
    __slots__ = ()


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class NumLit(Term):
    __slots__ = ("value",)


class Var(Term):
    __slots__ = ("name",)


class Add(Term):
    __slots__ = ("left", "right")


class Mul(Term):
    __slots__ = ("left", "right")


class Neg(Term):
    __slots__ = ("arg",)


class Inv(Term):
    __slots__ = ("arg",)


class Div(Term):
    __slots__ = ("left", "right")


class Pow(Term):
    """`arg^n` for a natural number n (`arg^0` is 1)."""

    __slots__ = ("arg", "n")


ZERO = Zero()
ONE = One()


class Formula(Node):
    __slots__ = ()


class Eq(Formula):
    __slots__ = ("left", "right")


class Gt(Formula):
    __slots__ = ("left", "right")


class Lt(Formula):
    __slots__ = ("left", "right")


class Not(Formula):
    __slots__ = ("arg",)


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


class Implies(Formula):
    __slots__ = ("left", "right")


class Forall(Formula):
    __slots__ = ("var", "body")


class Exists(Formula):
    __slots__ = ("var", "body")


_LEAVES = frozenset({Zero, One, NumLit, Var})
_UNARY = frozenset({Neg, Inv, Not})
_BINARY = frozenset({Add, Mul, Div, Eq, Gt, Lt, And, Or, Implies})
_QUANTIFIERS = frozenset({Forall, Exists})


def children(node) -> tuple:
    """Direct subterms and subformulas of a node, in textual order."""
    cls = type(node)
    if cls in _BINARY:
        return (node.left, node.right)
    if cls in _UNARY or cls is Pow:
        return (node.arg,)
    if cls in _QUANTIFIERS:
        return (node.body,)
    if cls in _LEAVES:
        return ()
    raise TypeError(f"not a term or formula: {node!r}")


def rebuild(node, kids):
    """The same kind of node as `node` with children `kids`; a quantifier
    keeps its variable and a power its exponent."""
    cls = type(node)
    if cls in _BINARY or cls in _UNARY:
        return cls(*kids)
    if cls is Pow:
        return Pow(*kids, node.n)
    if cls in _QUANTIFIERS:
        return cls(node.var, *kids)
    if cls in _LEAVES:
        return node
    raise TypeError(f"not a term or formula: {node!r}")


# The walkers below recurse with plain loops, one frame per level, which
# the parser's depth bound keeps below the recursion limit: a generator
# or (before Python 3.12) a comprehension adds a frame per level, which
# halves the depth of term they can walk.  Node `==`, `hash` and `repr`
# do not recurse at all.


def free_vars(node) -> frozenset:
    """Free variable names of a term or formula."""
    if isinstance(node, Var):
        return frozenset({node.name})
    names = frozenset()
    for kid in children(node):
        names |= free_vars(kid)
    if type(node) in _QUANTIFIERS:
        names -= {node.var}
    return names


def _contains(node, kind) -> bool:
    """True iff the term or formula has a node of class `kind`."""
    if isinstance(node, kind):
        return True
    for kid in children(node):
        if _contains(kid, kind):
            return True
    return False


def to_inversive(t: Term) -> Term:
    """Replace every division x/y by x * y^-1."""
    kids = []
    for kid in children(t):
        kids.append(to_inversive(kid))
    if isinstance(t, Div):
        return Mul(kids[0], Inv(kids[1]))
    return rebuild(t, kids)


def to_divisive(t: Term) -> Term:
    """Replace every inverse x^-1 by 1/x."""
    kids = []
    for kid in children(t):
        kids.append(to_divisive(kid))
    if isinstance(t, Inv):
        return Div(ONE, kids[0])
    return rebuild(t, kids)
