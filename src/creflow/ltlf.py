"""Finite-trace LTL over Boolean predicate streams.

Formulas are built from entity-grounded atoms ``name(e1[,e2])`` with the
operators ``!`` (not), ``&``, ``|``, ``->``, ``G`` (globally), ``F``
(finally) and ``U`` (strong until). ``BINARY_OPERATORS`` gives their
precedence and associativity, and both the parser and the printer read it.
Truth is evaluated at frame 1 of a length-T trace; ``p U q`` requires q to
eventually hold.  A group of N traces is evaluated at once from (N, T)
streams: every operator applies the finite-trace recurrences (De Giacomo &
Vardi, IJCAI 2013) along the last axis.

Failed clauses additionally yield a violation witness: a set of
(entity, frame) pairs extracted by template-specific rules for the four
clause families (persistence ``G p``, terminal placement ``F G p``, causal
coupling ``G(p -> q)``, ordering ``p U q``), and by a conservative
polarity-based rule for everything else.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import FormulaSyntaxError, HorizonMismatch, MissingStream

DEFAULT_STABILITY_WINDOW = 3


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    def atoms(self):
        """All distinct atoms in the formula."""
        out = []
        seen = set()
        for node in self.walk():
            if isinstance(node, Atom) and node not in seen:
                seen.add(node)
                out.append(node)
        return out

    def entities(self):
        """All entity identifiers referenced by the formula's atoms."""
        out = set()
        for atom in self.atoms():
            out.update(atom.args)
        return out

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self):
        return ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str
    args: tuple

    def __str__(self):
        return f"{self.name}({','.join(self.args)})"


@dataclass(frozen=True)
class _Unary(Formula):
    child: Formula

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)


class Not(_Unary):
    pass


class Globally(_Unary):
    pass


class Finally(_Unary):
    pass


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


class Until(_Binary):
    pass


# Binary operators from loosest to tightest: (symbol, node, right-associative).
# Every unary operator binds tighter than all of them.
BINARY_OPERATORS = (("->", Implies, True), ("|", Or, False), ("&", And, False), ("U", Until, True))
UNARY_OPERATORS = {"!": Not, "G": Globally, "F": Finally}


class TemplateFamily(enum.Enum):
    PERSISTENCE = "persistence"
    TERMINAL_PLACEMENT = "terminal_placement"
    CAUSAL_COUPLING = "causal_coupling"
    ORDERING = "ordering"
    OTHER = "other"


@dataclass(frozen=True)
class Witness:
    """Violation witness: set of (entity id, 1-indexed frame) pairs."""

    pairs: frozenset

    def __bool__(self):
        return bool(self.pairs)

    def frames(self):
        return sorted({t for _, t in self.pairs})

    def entities(self):
        return sorted({e for e, _ in self.pairs})


EMPTY_WITNESS = Witness(frozenset())


# --------------------------------------------------------------------------
# Parser and printer
# --------------------------------------------------------------------------

# A symbol token's kind is its text; every other name is an "ident".
_SYMBOLS = {s for s, _, _ in BINARY_OPERATORS} | set(UNARY_OPERATORS) | {"(", ")", ","}
_MARKS = {s[0]: s for s in _SYMBOLS if not s.isalpha()}  # by first character


def _tokens(src: str):
    """(kind, text, offset) triples of the whole text, ending with ("eof", "", len(src))."""
    tokens, i, n = [], 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
        else:
            text = _MARKS.get(c)
            if text is None:
                raise FormulaSyntaxError(f"unexpected character {c!r}", i)
            if not src.startswith(text, i):
                raise FormulaSyntaxError(f"expected {text!r}", i)
            j = i + len(text)
        tokens.append((text if text in _SYMBOLS else "ident", text, i))
        i = j
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokens(src)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self):
        self.idx += 1
        return self.tokens[self.idx - 1]

    def expect(self, kind) -> str:
        found, text, offset = self.take()
        if found != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {text!r}", offset)
        return text

    def binary(self, level=0) -> Formula:
        """A formula whose operators are at row ``level`` of BINARY_OPERATORS or tighter."""
        if level == len(BINARY_OPERATORS):
            return self.unary()
        symbol, node, right = BINARY_OPERATORS[level]
        f = self.binary(level + 1)
        while self.peek()[0] == symbol:
            self.take()
            if right:
                return node(f, self.binary(level))
            f = node(f, self.binary(level + 1))
        return f

    def unary(self) -> Formula:
        kind, text, offset = self.take()
        if kind in UNARY_OPERATORS:
            return UNARY_OPERATORS[kind](self.unary())
        if kind == "(":
            f = self.binary()
            self.expect(")")
            return f
        if kind == "ident":
            self.expect("(")
            args = [self.expect("ident")]
            if self.peek()[0] == ",":
                self.take()
                args.append(self.expect("ident"))
            self.expect(")")
            return Atom(text, tuple(args))
        raise FormulaSyntaxError(f"expected formula, found {text or 'end of input'!r}", offset)


def parse_formula(src: str) -> Formula:
    """Parse formula text into its AST; raises FormulaSyntaxError with offset."""
    parser = _Parser(src)
    f = parser.binary()
    kind, text, offset = parser.peek()
    if kind != "eof":
        raise FormulaSyntaxError(f"unexpected trailing input {text!r}", offset)
    return f


_BINARY_ROWS = {node: (level, symbol, right)
                for level, (symbol, node, right) in enumerate(BINARY_OPERATORS)}
_UNARY_SYMBOLS = {node: symbol for symbol, node in UNARY_OPERATORS.items()}


def print_formula(f: Formula) -> str:
    """Render a formula; parse_formula(print_formula(f)) is structurally f."""
    return _fmt(f, 0)


def _fmt(f: Formula, min_level: int) -> str:
    """Text of ``f``, in parentheses if its operator's row is looser than ``min_level``."""
    if isinstance(f, Atom):
        return str(f)
    if isinstance(f, _Unary):
        symbol = _UNARY_SYMBOLS[type(f)]
        # a letter operator is spaced off so it does not run into the operand's name
        prefix = symbol + " " if symbol.isalpha() else symbol
        return prefix + _fmt(f.child, len(BINARY_OPERATORS))
    level, symbol, right = _BINARY_ROWS[type(f)]
    # the operand on the associative side may sit at this row, the other must bind tighter
    s = f"{_fmt(f.left, level + right)} {symbol} {_fmt(f.right, level + (not right))}"
    return f"({s})" if level < min_level else s


# --------------------------------------------------------------------------
# Template classification
# --------------------------------------------------------------------------

def _is_literal_prop(f: Formula) -> bool:
    # propositional with negation only directly on atoms
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return isinstance(f.child, Atom)
    if isinstance(f, (And, Or, Implies)):
        return _is_literal_prop(f.left) and _is_literal_prop(f.right)
    return False


def classify_template(f: Formula) -> TemplateFamily:
    """Total, deterministic mapping of an AST onto its clause family."""
    if isinstance(f, Globally):
        child = f.child
        if isinstance(child, Implies) and _is_literal_prop(child):
            return TemplateFamily.CAUSAL_COUPLING
        if _is_literal_prop(child):
            return TemplateFamily.PERSISTENCE
        return TemplateFamily.OTHER
    if isinstance(f, Finally):
        child = f.child
        if isinstance(child, Globally) and _is_literal_prop(child.child):
            return TemplateFamily.TERMINAL_PLACEMENT
        return TemplateFamily.OTHER
    if isinstance(f, Until):
        if _is_literal_prop(f.left) and _is_literal_prop(f.right):
            return TemplateFamily.ORDERING
        return TemplateFamily.OTHER
    return TemplateFamily.OTHER


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def _stream_for(atom: Atom, streams, shape) -> np.ndarray:
    if atom not in streams:
        raise MissingStream(f"no stream for atom {atom}")
    values = np.asarray(streams[atom], dtype=bool)
    if values.shape != shape:
        raise HorizonMismatch(
            f"stream for {atom} has length {values.shape}, horizon is {shape[-1]}"
        )
    return values


def _sat(f: Formula, streams, shape) -> np.ndarray:
    """Satisfaction array: sat[..., t] is the truth of f at frame t+1 (0-indexed).

    ``shape`` is the stream shape, (T,) for one trace or (N, T) for a group;
    every operator works along the last axis.
    """
    if isinstance(f, Atom):
        return _stream_for(f, streams, shape)
    if isinstance(f, Not):
        return ~_sat(f.child, streams, shape)
    if isinstance(f, And):
        return _sat(f.left, streams, shape) & _sat(f.right, streams, shape)
    if isinstance(f, Or):
        return _sat(f.left, streams, shape) | _sat(f.right, streams, shape)
    if isinstance(f, Implies):
        return ~_sat(f.left, streams, shape) | _sat(f.right, streams, shape)
    if isinstance(f, Globally):
        child = _sat(f.child, streams, shape)
        return np.logical_and.accumulate(child[..., ::-1], axis=-1)[..., ::-1]
    if isinstance(f, Finally):
        child = _sat(f.child, streams, shape)
        return np.logical_or.accumulate(child[..., ::-1], axis=-1)[..., ::-1]
    if isinstance(f, Until):
        a = _sat(f.left, streams, shape)
        b = _sat(f.right, streams, shape)
        # reverse scans for the next frame where b holds and where a fails:
        # a U b holds at t iff b holds at some j >= t and a holds on [t, j)
        horizon = shape[-1]
        frame = np.arange(horizon)
        next_b = np.minimum.accumulate(np.where(b, frame, horizon)[..., ::-1], axis=-1)[..., ::-1]
        next_not_a = np.minimum.accumulate(np.where(a, horizon, frame)[..., ::-1], axis=-1)[..., ::-1]
        return (next_b < horizon) & (next_b <= next_not_a)
    raise TypeError(f"unknown node {type(f).__name__}")


def eval_bruteforce(f: Formula, streams, horizon: int) -> bool:
    """Independent oracle: recursive expansion of the semantics, no vector ops."""
    atom_values = {a: _stream_for(a, streams, (horizon,)) for a in f.atoms()}
    memo = {}

    def ev(node, t):
        key = (id(node), t)
        if key in memo:
            return memo[key]
        if isinstance(node, Atom):
            res = bool(atom_values[node][t])
        elif isinstance(node, Not):
            res = not ev(node.child, t)
        elif isinstance(node, And):
            res = ev(node.left, t) and ev(node.right, t)
        elif isinstance(node, Or):
            res = ev(node.left, t) or ev(node.right, t)
        elif isinstance(node, Implies):
            res = (not ev(node.left, t)) or ev(node.right, t)
        elif isinstance(node, Globally):
            res = all(ev(node.child, s) for s in range(t, horizon))
        elif isinstance(node, Finally):
            res = any(ev(node.child, s) for s in range(t, horizon))
        elif isinstance(node, Until):
            res = any(
                ev(node.right, j) and all(ev(node.left, i) for i in range(t, j))
                for j in range(t, horizon)
            )
        else:
            raise TypeError(f"unknown node {type(node).__name__}")
        memo[key] = res
        return res

    return ev(f, 0)


# --------------------------------------------------------------------------
# Witness extraction
# --------------------------------------------------------------------------

def _polarity_parts(f: Formula, streams, shape):
    # conservative rule: frames where an atom's value differs from the value
    # its occurrence polarity would need; atoms under both polarities get all frames
    polarities = {}

    def visit(node, pol):
        if isinstance(node, Atom):
            polarities.setdefault(node, set()).add(pol)
        elif isinstance(node, Not):
            visit(node.child, not pol)
        elif isinstance(node, Implies):
            visit(node.left, not pol)
            visit(node.right, pol)
        else:
            for child in node.children():
                visit(child, pol)

    visit(f, True)
    parts = []
    for atom, pols in polarities.items():
        values = _stream_for(atom, streams, shape)
        if len(pols) == 2:
            frames = np.ones(shape, dtype=bool)
        elif True in pols:
            frames = ~values
        else:
            frames = values
        parts.append((atom.args, frames))
    return parts


def _witness_parts(f, family, streams, shape, stability_window):
    """A failed clause's witness as (entities, frames) parts.

    ``frames`` has the stream shape; a row's witness is the union over parts
    of entities x the frames set in that row.
    """
    horizon = shape[-1]
    if family is TemplateFamily.PERSISTENCE:
        p = f.child
        return [(sorted(p.entities()), ~_sat(p, streams, shape))]
    if family is TemplateFamily.CAUSAL_COUPLING:
        p, q = f.child.left, f.child.right
        frames = _sat(p, streams, shape) & ~_sat(q, streams, shape)
        return [(sorted(p.entities() | q.entities()), frames)]
    if family is TemplateFamily.TERMINAL_PLACEMENT:
        p = f.child.child
        tail = horizon - min(stability_window, horizon)
        frames = np.zeros(shape, dtype=bool)
        frames[..., tail:] = ~_sat(p, streams, shape)[..., tail:]
        return [(sorted(p.entities()), frames)]
    if family is TemplateFamily.ORDERING:
        p, q = f.left, f.right
        q_seen = np.logical_or.accumulate(_sat(q, streams, shape), axis=-1)
        broken = ~_sat(p, streams, shape) & ~q_seen
        t_break = np.where(broken.any(axis=-1), broken.argmax(axis=-1), 0)
        frames = np.arange(horizon) >= t_break[..., None]
        return [(sorted(p.entities() | q.entities()), frames)]
    return _polarity_parts(f, streams, shape)


def eval_clause_group(
    f: Formula,
    streams,
    shape,
    stability_window: int = DEFAULT_STABILITY_WINDOW,
):
    """Evaluate a clause at frame 1 on every row of (..., T) streams of ``shape``.

    Returns (truths, witnesses): a flat Boolean array with one entry per row
    and one Witness per row. Satisfied rows get the empty witness; failed
    ones follow the clause's template family (the tail window of a failed
    terminal placement covers the last ``stability_window`` frames, clamped
    to the horizon).
    """
    horizon = shape[-1]
    if horizon < 1:
        raise HorizonMismatch(f"horizon must be >= 1, got {horizon}")
    truths = _sat(f, streams, shape)[..., 0].reshape(-1)
    witnesses = [EMPTY_WITNESS] * truths.size
    if truths.all():
        return truths, witnesses
    parts = [
        (entities, frames.reshape(-1, horizon).tolist())
        for entities, frames in _witness_parts(
            f, classify_template(f), streams, shape, stability_window
        )
    ]
    for i in np.flatnonzero(~truths).tolist():
        witnesses[i] = Witness(frozenset(
            (e, t + 1)
            for entities, frames in parts
            for t, hit in enumerate(frames[i]) if hit
            for e in entities
        ))
    return truths, witnesses


def eval_clause(
    f: Formula,
    streams,
    horizon: int,
    stability_window: int = DEFAULT_STABILITY_WINDOW,
):
    """Evaluate a clause at frame 1 of one trace and extract its violation witness.

    Returns (truth, Witness); see eval_clause_group.
    """
    truths, witnesses = eval_clause_group(f, streams, (horizon,), stability_window)
    return bool(truths[0]), witnesses[0]
