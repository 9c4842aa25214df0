import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from creflow import ltlf
from creflow.errors import FormulaSyntaxError, HorizonMismatch, MissingStream
from creflow.ltlf import (
    Atom,
    ClauseProgram,
    Finally,
    Globally,
    Implies,
    Not,
    TemplateFamily,
    Until,
    classify_template,
    eval_bruteforce,
    eval_clause,
    parse_formula,
    print_formula,
)

from conftest import ATOMS, IDENTIFIERS, formulas, random_formula, random_streams


def bits(s):
    return np.array([c == "1" for c in s])


P = Atom("p", ("e1",))
Q = Atom("q", ("e2",))


class TestParser:
    def test_implication_under_globally(self):
        f = parse_formula("G(grasp(arm,cup) -> !open(drawer))")
        assert isinstance(f, Globally)
        assert isinstance(f.child, Implies)
        assert f.child.left == Atom("grasp", ("arm", "cup"))
        assert f.child.right == Not(Atom("open", ("drawer",)))

    def test_until_of_atoms(self):
        f = parse_formula("holding(arm,cup) U inside(cup,drawer)")
        assert f == Until(Atom("holding", ("arm", "cup")), Atom("inside", ("cup", "drawer")))

    def test_terminal_placement_shape(self):
        f = parse_formula("F G on_table(block)")
        assert f == Finally(Globally(Atom("on_table", ("block",))))
        assert classify_template(f) is TemplateFamily.TERMINAL_PLACEMENT

    def test_precedence_chain(self):
        # -> binds loosest, then |, &, U, unary
        f = parse_formula("!p(a) & q(b) U r(c) | s(d) -> t(e)")
        assert isinstance(f, Implies)
        assert isinstance(f.left, ltlf.Or)
        assert isinstance(f.left.left, ltlf.And)
        assert isinstance(f.left.left.right, Until)

    def test_right_associativity(self):
        f = parse_formula("p(a) -> q(b) -> r(c)")
        assert isinstance(f.right, Implies)
        g = parse_formula("p(a) U q(b) U r(c)")
        assert isinstance(g.right, Until)

    def test_unary_binds_tighter_than_until(self):
        f = parse_formula("G p(a) U q(b)")
        assert isinstance(f, Until)
        assert isinstance(f.left, Globally)

    @pytest.mark.parametrize(
        "src,offset",
        [
            ("p(a) &", 6),
            ("G", 1),
            ("p(a,b,c)", 5),
            ("p(a) @ q(b)", 5),
            ("(p(a)", 5),
            ("p(a) q(b)", 5),
        ],
    )
    def test_syntax_errors_carry_offset(self, src, offset):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(src)
        assert err.value.offset == offset

    def test_reserved_operator_names(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("G(a, b)")  # G is an operator, not a predicate

    # Printed text of every operator and parenthesisation case, pinned exactly.
    @pytest.mark.parametrize(
        "src,printed",
        [
            ("(p(a) -> q(b)) -> r(c)", "(p(a) -> q(b)) -> r(c)"),
            ("p(a) -> q(b) -> r(c)", "p(a) -> q(b) -> r(c)"),
            ("(p(a) U q(b)) U r(c)", "(p(a) U q(b)) U r(c)"),
            ("p(a) U q(b) U r(c)", "p(a) U q(b) U r(c)"),
            ("p(a) & q(b) & r(c)", "p(a) & q(b) & r(c)"),
            ("p(a) & (q(b) & r(c))", "p(a) & (q(b) & r(c))"),
            ("p(a) | (q(b) | r(c))", "p(a) | (q(b) | r(c))"),
            ("(p(a) | q(b)) & r(c) | s(d)", "(p(a) | q(b)) & r(c) | s(d)"),
            ("(p(a) -> q(b)) | r(c)", "(p(a) -> q(b)) | r(c)"),
            ("p(a) & (q(b) -> r(c))", "p(a) & (q(b) -> r(c))"),
            ("p(a) U (q(b) & r(c))", "p(a) U (q(b) & r(c))"),
            ("(p(a) -> q(b)) U r(c)", "(p(a) -> q(b)) U r(c)"),
            ("!(p(a) & q(b))", "!(p(a) & q(b))"),
            ("!(p(a) U q(b))", "!(p(a) U q(b))"),
            ("G(grasp(arm,cup)->!open( drawer ))", "G (grasp(arm,cup) -> !open(drawer))"),
            ("F (p(a) U q(b))", "F (p(a) U q(b))"),
            ("F G (p(a) | !q(b, c))", "F G (p(a) | !q(b,c))"),
            ("G (p(a) & q(b)) U r(c)", "G (p(a) & q(b)) U r(c)"),
            ("!!G F p(a)", "!!G F p(a)"),
            ("G !p(a) U q(b)", "G !p(a) U q(b)"),
            ("!p(a) & q(b) U r(c) | s(d) -> t(e)", "!p(a) & q(b) U r(c) | s(d) -> t(e)"),
            ("((p(a)))", "p(a)"),
        ],
    )
    def test_printed_text_pinned(self, src, printed):
        assert print_formula(parse_formula(src)) == printed

    # Every FormulaSyntaxError kind: message and offset, pinned exactly.
    @pytest.mark.parametrize(
        "src,message,offset",
        [
            ("", "expected formula, found 'end of input'", 0),
            ("p(a) &  ", "expected formula, found 'end of input'", 8),
            ("p(a) & )", "expected formula, found ')'", 7),
            ("U(a)", "expected formula, found 'U'", 0),
            ("p(a) @ q(b)", "unexpected character '@'", 5),
            ("p(a) - q(b)", "expected '->'", 5),
            ("p(a) q(b)", "unexpected trailing input 'q'", 5),
            ("p(a,b,c)", "expected ')', found ','", 5),
            ("(p(a)", "expected ')', found ''", 5),
            ("p a", "expected '(', found 'a'", 2),
            ("G(a, b)", "expected '(', found ','", 3),
            ("p()", "expected 'ident', found ')'", 2),
        ],
    )
    def test_syntax_error_messages_pinned(self, src, message, offset):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(src)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            f = random_formula(rng, ATOMS, depth=5)
            assert parse_formula(print_formula(f)) == f


class TestClassification:
    @pytest.mark.parametrize(
        "src,family",
        [
            ("G p(a)", TemplateFamily.PERSISTENCE),
            ("G !p(a)", TemplateFamily.PERSISTENCE),
            ("G (p(a) | q(b))", TemplateFamily.PERSISTENCE),
            ("G (p(a) -> q(b))", TemplateFamily.CAUSAL_COUPLING),
            ("F G p(a)", TemplateFamily.TERMINAL_PLACEMENT),
            ("p(a) U q(b)", TemplateFamily.ORDERING),
            ("!p(a) U (q(b) | r(c))", TemplateFamily.ORDERING),
            ("G p(a) & G q(b)", TemplateFamily.OTHER),
            ("G F p(a)", TemplateFamily.OTHER),
            ("G !(p(a) & q(b))", TemplateFamily.OTHER),
            ("F p(a)", TemplateFamily.OTHER),
        ],
    )
    def test_families(self, src, family):
        assert classify_template(parse_formula(src)) is family

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            f = random_formula(rng, ATOMS, 4)
            assert classify_template(f) is classify_template(f)


class TestSemantics:
    def test_globally_satisfied(self):
        truth, witness = eval_clause(Globally(P), {P: np.ones(8, bool)}, 8)
        assert truth and not witness

    def test_until_example(self):
        streams = {P: bits("11110000"), Q: bits("00001000")}
        truth, witness = eval_clause(Until(P, Q), streams, 8)
        assert truth and not witness
        assert eval_bruteforce(Until(P, Q), streams, 8)

    def test_fg_collapses_to_final_frame(self):
        f = Finally(Globally(P))
        assert eval_bruteforce(f, {P: bits("00111")}, 5)
        assert not eval_bruteforce(f, {P: bits("11110")}, 5)

    def test_single_frame_globally(self):
        assert eval_bruteforce(Globally(P), {P: bits("1")}, 1)

    def test_equivalence_random(self):
        rng = np.random.default_rng(7)
        mismatches = 0
        for _ in range(1000):
            horizon = int(rng.integers(1, 13))
            f = random_formula(rng, ATOMS, 5)
            streams = random_streams(rng, ATOMS, horizon)
            truth, _ = eval_clause(f, streams, horizon)
            if truth != eval_bruteforce(f, streams, horizon):
                mismatches += 1
        assert mismatches == 0

    def test_missing_stream(self):
        with pytest.raises(MissingStream):
            eval_clause(Until(P, Q), {P: np.ones(4, bool)}, 4)

    def test_horizon_mismatch(self):
        with pytest.raises(HorizonMismatch):
            eval_clause(Globally(P), {P: np.ones(4, bool)}, 5)


class TestWitnesses:
    def test_persistence_witness(self):
        truth, witness = eval_clause(Globally(P), {P: bits("10110101")}, 8)
        assert not truth
        assert witness.pairs == {("e1", 2), ("e1", 5), ("e1", 7)}

    def test_causal_witness_both_entity_sets(self):
        f = Globally(Implies(P, Q))
        streams = {P: bits("00100000"), Q: bits("00000000")}
        truth, witness = eval_clause(f, streams, 8)
        assert not truth
        assert witness.pairs == {("e1", 3), ("e2", 3)}

    def test_terminal_placement_tail_window(self):
        f = Finally(Globally(P))
        truth, witness = eval_clause(f, {P: bits("00000100")}, 8)
        assert not truth
        assert witness.frames() == [7, 8]  # frame 6 is satisfied inside the window
        truth, witness = eval_clause(f, {P: bits("00000000")}, 8)
        assert witness.frames() == [6, 7, 8]

    def test_terminal_window_clamped(self):
        f = Finally(Globally(P))
        _, witness = eval_clause(f, {P: bits("00")}, 2)
        assert witness.frames() == [1, 2]

    def test_ordering_break_frame(self):
        # p fails at frame 3 with q still false
        streams = {P: bits("11011111"), Q: bits("00000000")}
        truth, witness = eval_clause(Until(P, Q), streams, 8)
        assert not truth
        assert witness.frames() == [3, 4, 5, 6, 7, 8]

    def test_ordering_q_never_p_never_breaks(self):
        streams = {P: bits("1111"), Q: bits("0000")}
        truth, witness = eval_clause(Until(P, Q), streams, 4)
        assert not truth
        assert witness.frames() == [1, 2, 3, 4]

    def test_other_polarity_witness(self):
        f = Finally(P)  # OTHER family
        truth, witness = eval_clause(f, {P: bits("0000")}, 4)
        assert not truth
        assert witness.pairs == {("e1", t) for t in range(1, 5)}

    def test_soundness_and_bounds_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            horizon = int(rng.integers(1, 13))
            f = random_formula(rng, ATOMS, 5)
            streams = random_streams(rng, ATOMS, horizon)
            truth, witness = eval_clause(f, streams, horizon)
            if truth:
                assert not witness
            else:
                assert witness
            entities = f.entities()
            for e, t in witness.pairs:
                assert 1 <= t <= horizon
                assert e in entities


FORMULAS = formulas(st.sampled_from(ATOMS), max_leaves=8)
NAMED_ATOMS = st.builds(Atom, IDENTIFIERS,
                        st.lists(IDENTIFIERS, min_size=1, max_size=2).map(tuple))
NAMED_FORMULAS = formulas(NAMED_ATOMS, max_leaves=12)


class TestPrintParseProperty:
    @settings(max_examples=300, deadline=None)
    @given(NAMED_FORMULAS)
    def test_parse_inverts_print(self, f):
        assert parse_formula(print_formula(f)) == f


@st.composite
def group_streams(draw):
    """(N, T) streams for every atom, N in 1..4 and T in 1..12."""
    rows = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 12))
    values = draw(arrays(bool, (len(ATOMS), rows, horizon)))
    return {atom: values[k] for k, atom in enumerate(ATOMS)}, (rows, horizon)


class TestBatchedSemantics:
    @settings(max_examples=300, deadline=None)
    @given(FORMULAS, group_streams())
    def test_rows_match_bruteforce_at_every_frame(self, f, streams_shape):
        streams, shape = streams_shape
        program = ClauseProgram([f])
        sat = program.values(streams, shape)[program.roots[0]]
        assert sat.shape == shape
        rows, horizon = shape
        for i in range(rows):
            for t in range(horizon):
                suffix = {atom: s[i, t:] for atom, s in streams.items()}
                assert sat[i, t] == eval_bruteforce(f, suffix, horizon - t)

    @settings(max_examples=300, deadline=None)
    @given(FORMULAS, group_streams())
    def test_group_clause_matches_each_row(self, f, streams_shape):
        streams, shape = streams_shape
        truths, witnesses = ClauseProgram([f]).evaluate(streams, shape)
        truths, witnesses = truths[0], witnesses[0]
        assert truths.shape == (shape[0],) and len(witnesses) == shape[0]
        for i in range(shape[0]):
            row = {atom: s[i] for atom, s in streams.items()}
            assert (truths[i], witnesses[i]) == eval_clause(f, row, shape[1])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FORMULAS, min_size=1, max_size=4), group_streams())
    def test_shared_program_matches_one_clause_programs(self, bases, streams_shape):
        # clauses built over the same subformulas, in every template family
        clauses = bases + [Globally(bases[0]), Finally(Globally(bases[-1])),
                           Globally(Implies(bases[0], bases[-1])), Until(bases[-1], bases[0])]
        streams, shape = streams_shape
        program = ClauseProgram(clauses)
        nodes = {node for f in clauses for node in f.walk()}
        assert len(program.values(streams, shape)) == len(nodes)  # one node per subformula
        truths, witnesses = program.evaluate(streams, shape)
        assert truths.shape == (len(clauses), shape[0])
        for k, f in enumerate(clauses):
            alone_truths, alone_witnesses = ClauseProgram([f]).evaluate(streams, shape)
            assert truths[k].tolist() == alone_truths[0].tolist()
            assert witnesses[k] == alone_witnesses[0]
            assert [bool(w) for w in witnesses[k]] == [not t for t in truths[k]]
            assert [bool(w) for w in witnesses[k]] == [bool(w.pairs) for w in witnesses[k]]


class TestStreamEntries:
    """A program takes its streams as a mapping, checked, or as a list in ``atoms`` order."""

    def test_mapping_entry_messages(self):
        program = ClauseProgram([Until(P, Q)])
        with pytest.raises(MissingStream, match=r"^no stream for atom q\(e2\)$"):
            eval_clause(Until(P, Q), {P: np.ones(4, bool)}, 4)
        with pytest.raises(HorizonMismatch,
                           match=r"^stream for p\(e1\) has length \(4,\), horizon is 5$"):
            eval_clause(Globally(P), {P: np.ones(4, bool)}, 5)
        for entry in (program.values, program.evaluate):
            with pytest.raises(MissingStream, match=r"^no stream for atom q\(e2\)$"):
                entry({P: np.ones((2, 4), bool)}, (2, 4))
            with pytest.raises(HorizonMismatch, match=r"^stream for p\(e1\) has length "
                                                      r"\(2, 4\), horizon is 5$"):
                entry({P: np.ones((2, 4), bool), Q: np.ones((2, 5), bool)}, (2, 5))
            with pytest.raises(HorizonMismatch, match=r"^horizon must be >= 1, got 0$"):
                entry({P: np.ones((2, 0), bool), Q: np.ones((2, 0), bool)}, (2, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FORMULAS, min_size=1, max_size=4), group_streams())
    def test_list_entry_equals_mapping_entry(self, clauses, streams_shape):
        streams, shape = streams_shape
        program = ClauseProgram(clauses)
        listed = [streams[atom] for atom in program.atoms]
        by_key = dict(reversed(list(streams.items())))  # key order does not matter
        for got, expected in zip(program.values(listed, shape), program.values(by_key, shape)):
            assert got.tobytes() == expected.tobytes()
        (truths, witnesses), (mapped_truths, mapped_witnesses) = (
            program.evaluate(listed, shape), program.evaluate(by_key, shape))
        assert truths.tobytes() == mapped_truths.tobytes() and witnesses == mapped_witnesses

