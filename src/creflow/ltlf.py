"""Finite-trace LTL over Boolean predicate streams.

Formulas are built from entity-grounded atoms ``name(e1[,e2])`` with the
operators ``!`` (not), ``&``, ``|``, ``->``, ``G`` (globally), ``F``
(finally) and ``U`` (strong until). ``BINARY_OPERATORS`` gives their
precedence and associativity, and both the parser and the printer read it.
Truth is evaluated at frame 1 of a length-T trace; ``p U q`` requires q to
eventually hold.  A list of clauses compiles into one ClauseProgram, which
evaluates every distinct subformula once for a group of N traces from
(N, T) streams: every operator applies the finite-trace recurrences
(De Giacomo & Vardi, IJCAI 2013) along the last axis.

Failed clauses additionally yield a violation witness: a set of
(entity, frame) pairs extracted by template-specific rules for the four
clause families (persistence ``G p``, terminal placement ``F G p``, causal
coupling ``G(p -> q)``, ordering ``p U q``), and by a conservative
polarity-based rule for everything else. ``eval_bruteforce`` is the
independent reference for truth.
"""

import enum
import math
import operator
from collections.abc import Mapping
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


class Witness:
    """Violation witness: set of (entity id, 1-indexed frame) pairs.

    A witness is row ``row`` of its clause's (entities, (rows, T) frames)
    ``parts``: the entities x the frames set in that row, unioned over
    parts. ``pairs`` is formed on first read; equality and hashing go by it.
    """

    __slots__ = ("_pairs", "_parts", "_row")

    def __init__(self, parts, row):
        self._pairs = None
        self._parts = parts
        self._row = row

    @property
    def pairs(self) -> frozenset:
        if self._pairs is None:
            self._pairs = frozenset(
                (e, t + 1)
                for entities, frames in self._parts
                for t in np.flatnonzero(frames[self._row]).tolist()
                for e in entities
            )
        return self._pairs

    def mark_frames(self, mask):
        """OR this row of each part's frames into ``mask``, a (horizon,) Boolean array.

        A part with no entities holds no pairs and marks nothing.
        """
        for entities, frames in self._parts:
            if entities:
                mask |= frames[self._row]

    def __bool__(self):
        return any(entities and frames[self._row].any() for entities, frames in self._parts)

    def __eq__(self, other):
        if not isinstance(other, Witness):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Witness(pairs={self.pairs!r})"

    def frames(self):
        return sorted({t for _, t in self.pairs})

    def entities(self):
        return sorted({e for e, _ in self.pairs})


EMPTY_WITNESS = Witness((), 0)


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
# Clause programs
# --------------------------------------------------------------------------

def _globally(a):
    return np.logical_and.accumulate(a[..., ::-1], axis=-1)[..., ::-1]


def _finally(a):
    return np.logical_or.accumulate(a[..., ::-1], axis=-1)[..., ::-1]


def _until(a, b):
    # reverse scans for the next frame where b holds and where a fails:
    # a U b holds at t iff b holds at some j >= t and a holds on [t, j)
    horizon = a.shape[-1]
    frame = np.arange(horizon)
    next_b = np.minimum.accumulate(np.where(b, frame, horizon)[..., ::-1], axis=-1)[..., ::-1]
    next_not_a = np.minimum.accumulate(np.where(a, horizon, frame)[..., ::-1], axis=-1)[..., ::-1]
    return (next_b < horizon) & (next_b <= next_not_a)


# Each operator's value along the last axis from its operands' values (one
# operand for a unary operator, two for a binary one).
_OPERATORS = {
    Not: operator.invert,
    And: operator.and_,
    Or: operator.or_,
    Implies: lambda a, b: ~a | b,
    Globally: _globally,
    Finally: _finally,
    Until: _until,
}


def _polarities(f: Formula):
    """Atom -> the set of polarities (True positive) of its occurrences in ``f``."""
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
    return polarities


class ClauseProgram:
    """A list of formulas compiled into one program over shared nodes.

    Every structurally distinct subformula is one node, after the nodes of
    its operands; so the atoms come in order of first appearance (``atoms``).
    Running the program evaluates each node once along the last axis of
    (..., T) streams (De Giacomo & Vardi's finite-trace recurrences), so
    clauses that share a subformula share its values. Each clause's witness
    rule is resolved to node indices here:

    - persistence ``G p``: the frames where p fails;
    - causal coupling ``G(p -> q)``: the frames where p holds and q fails;
    - terminal placement ``F G p``: the frames of the tail window (the last
      DEFAULT_STABILITY_WINDOW frames, clamped to the horizon) where p fails;
    - ordering ``p U q``: every frame from the first one where p fails
      before q has held (from frame 1 if there is none);
    - any other clause, conservatively: for each atom, the frames where its
      value differs from the one its occurrence polarity needs, and every
      frame for an atom under both polarities.

    Each rule names its entities: those of p (and q), or an atom's own.
    """

    def __init__(self, formulas):
        formulas = list(formulas)
        # (operator function, operand node, operand node or None); an atom is
        # (None, its position in ``atoms``, None)
        nodes = []
        index = {}  # subformula -> node index
        first_use = {}  # atom -> index of the first formula containing it

        def node(f, i):
            k = index.get(f)
            if k is None:
                if isinstance(f, Atom):
                    nodes.append((None, len(first_use), None))
                    first_use[f] = i
                else:
                    operands = [node(child, i) for child in f.children()]
                    nodes.append((_OPERATORS[type(f)], operands[0],
                                  operands[1] if len(operands) > 1 else None))
                k = index[f] = len(nodes) - 1
            return k

        self.roots = tuple(node(f, i) for i, f in enumerate(formulas))
        self.atoms = tuple(first_use)  # in order of first appearance
        self.first_use = tuple(first_use.values())
        self._nodes = nodes
        self._rules = [_witness_rule(f, index) for f in formulas]

    def values(self, streams, shape) -> list:
        """Every node's truth at every frame: one array of ``shape`` per node.

        ``streams`` maps each atom to its (..., T) Boolean stream of ``shape``,
        and each one is checked; or it lists the streams in ``atoms`` order,
        taken as they are (Boolean arrays of ``shape``). values[k][..., t] is
        the truth of node k at frame t+1 (0-indexed).
        """
        horizon = shape[-1]
        if horizon < 1:
            raise HorizonMismatch(f"horizon must be >= 1, got {horizon}")
        if isinstance(streams, Mapping):
            streams = [_stream_for(atom, streams, shape) for atom in self.atoms]
        values = []
        for op, a, b in self._nodes:
            if op is None:
                values.append(streams[a])
            elif b is None:
                values.append(op(values[a]))
            else:
                values.append(op(values[a], values[b]))
        return values

    def evaluate(self, streams, shape):
        """Evaluate every clause at frame 1 on every row of (..., T) streams of ``shape``.

        ``streams`` is as for ``values``. Returns (truths, witnesses): a
        (clauses, rows) Boolean array and, per clause, one Witness per row.
        Satisfied rows get the empty witness; failed ones follow the clause's
        rule.
        """
        values = self.values(streams, shape)
        horizon = shape[-1]
        rows = math.prod(shape[:-1])
        truths = np.empty((len(self.roots), rows), dtype=bool)
        for k, root in enumerate(self.roots):
            truths[k] = values[root][..., 0].reshape(-1)
        witnesses = []
        for row_truths, rule in zip(truths.tolist(), self._rules):
            row_witnesses = [EMPTY_WITNESS] * rows
            if not all(row_truths):
                parts = [(entities, frames.reshape(rows, horizon)) for entities, frames
                         in _witness_parts(rule, values, horizon)]
                for i, truth in enumerate(row_truths):
                    if not truth:
                        row_witnesses[i] = Witness(parts, i)
            witnesses.append(row_witnesses)
        return truths, witnesses


def _witness_rule(f: Formula, index):
    """A clause's witness rule, by node index: (family, entities, p, q) for the
    template families (q None for one operand) and, for OTHER,
    (family, [(atom args, atom node, polarities)])."""
    family = classify_template(f)
    if family is TemplateFamily.PERSISTENCE:
        p, q = f.child, None
    elif family is TemplateFamily.CAUSAL_COUPLING:
        p, q = f.child.left, f.child.right
    elif family is TemplateFamily.TERMINAL_PLACEMENT:
        p, q = f.child.child, None
    elif family is TemplateFamily.ORDERING:
        p, q = f.left, f.right
    else:
        return family, [(atom.args, index[atom], pols) for atom, pols in _polarities(f).items()]
    if q is None:
        return family, sorted(p.entities()), index[p], None
    return family, sorted(p.entities() | q.entities()), index[p], index[q]


def _witness_parts(rule, values, horizon):
    """A clause's witness as (entities, frames) parts over all rows.

    ``frames`` has the stream shape; a row's witness is the union over parts
    of entities x the frames set in that row.
    """
    family = rule[0]
    if family is TemplateFamily.OTHER:
        parts = []
        for entities, k, pols in rule[1]:
            if len(pols) == 2:
                frames = np.ones(values[k].shape, dtype=bool)
            elif True in pols:
                frames = ~values[k]
            else:
                frames = values[k].copy()  # the caller's stream; witnesses outlive it
            parts.append((entities, frames))
        return parts
    _, entities, p, q = rule
    if family is TemplateFamily.PERSISTENCE:
        return [(entities, ~values[p])]
    if family is TemplateFamily.CAUSAL_COUPLING:
        return [(entities, values[p] & ~values[q])]
    if family is TemplateFamily.TERMINAL_PLACEMENT:
        tail = horizon - min(DEFAULT_STABILITY_WINDOW, horizon)
        frames = np.zeros(values[p].shape, dtype=bool)
        frames[..., tail:] = ~values[p][..., tail:]
        return [(entities, frames)]
    broken = ~(values[p] | np.logical_or.accumulate(values[q], axis=-1))
    t_break = broken.argmax(axis=-1)  # 0 in a row that never breaks
    return [(entities, np.arange(horizon) >= t_break[..., None])]


def eval_clause(f: Formula, streams, horizon: int):
    """Evaluate a clause at frame 1 of one trace and extract its violation witness.

    Returns (truth, Witness), from the one-clause ClauseProgram of ``f``.
    """
    truths, witnesses = ClauseProgram([f]).evaluate(streams, (horizon,))
    return bool(truths[0, 0]), witnesses[0][0]
