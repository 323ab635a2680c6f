import numpy as np
import pytest

from disctag.automata import (
    Automaton,
    build_lattice,
    determinize,
    export_text,
    grammar_automaton,
    minimize,
    random_well_formed,
    remove_epsilon,
)
from disctag.errors import EmptyLanguage
from disctag.inference import forward, marginals, viterbi
from disctag.scheme import CB, CI, NUM_TAGS, O, TAGS, is_structural


@pytest.fixture(scope="module")
def semantic():
    return grammar_automaton("semantic")


@pytest.fixture(scope="module")
def structural():
    return grammar_automaton("structural")


class TestAutomatonBasics:
    def test_flags(self):
        a = Automaton(2, {(0, O, 0.0, 1), (0, None, 0.0, 1)}, 0, {1})
        assert not a.is_epsilon_free
        assert not a.is_deterministic
        b = Automaton(2, {(0, O, 0.0, 1), (0, CB, 0.0, 1)}, 0, {1})
        assert b.is_epsilon_free and b.is_deterministic
        c = Automaton(2, {(0, O, 0.0, 0), (0, O, 0.0, 1)}, 0, {1})
        assert not c.is_deterministic

    def test_validation(self):
        with pytest.raises(ValueError):
            Automaton(1, set(), 0, {3})
        with pytest.raises(ValueError):
            Automaton(1, {(0, O, 0.0, 5)}, 0, {0})
        for label in ("O", O.index):
            with pytest.raises(ValueError, match="not a tag"):
                Automaton(1, {(0, label, 0.0, 0)}, 0, {0})

    def test_accepts_with_epsilon(self):
        a = Automaton(3, {(0, None, 0.0, 1), (1, O, 0.0, 2)}, 0, {2})
        assert a.accepts([O])
        assert not a.accepts([CB])
        assert not a.accepts([])


class TestRemoveEpsilon:
    def test_fixed_point_on_epsilon_free(self, semantic):
        assert remove_epsilon(semantic) is semantic

    def test_single_epsilon_path(self):
        a = Automaton(2, {(0, None, 0.0, 1)}, 0, {1})
        b = remove_epsilon(a)
        assert b.is_epsilon_free
        assert b.accepts([])
        assert not b.accepts([O])

    def test_language_preserved(self):
        a = Automaton(
            4,
            {
                (0, O, 0.0, 1),
                (1, None, 0.0, 2),
                (2, CB, 0.0, 3),
                (0, None, 0.0, 2),
            },
            0,
            {3},
        )
        b = remove_epsilon(a)
        assert b.is_epsilon_free
        for n in range(4):
            assert a.language(n) == b.language(n)


class TestDeterminizeMinimize:
    def test_determinize_requires_epsilon_free(self):
        a = Automaton(2, {(0, None, 0.0, 1)}, 0, {1})
        with pytest.raises(ValueError):
            determinize(a)

    def test_determinize_preserves_language(self):
        nfa = Automaton(
            3,
            {
                (0, O, 0.0, 0),
                (0, O, 0.0, 1),
                (1, CB, 0.0, 2),
            },
            0,
            {2},
        )
        dfa = determinize(nfa)
        assert dfa.is_deterministic
        for n in range(5):
            assert nfa.language(n) == dfa.language(n)

    def test_minimal_dfa_unique_size(self, semantic):
        minimal = minimize(semantic)
        # Myhill-Nerode: re-minimizing or determinize-then-minimize cannot
        # change the state count.
        assert minimize(minimal).num_states == minimal.num_states
        assert minimize(determinize(minimal)).num_states == minimal.num_states

    def test_minimize_preserves_language(self, semantic, language):
        minimal = minimize(semantic)
        for n in range(1, 5):
            assert minimal.language(n) == language.as_set(n)

    def test_minimize_drops_useless_states(self):
        a = Automaton(
            3,
            {(0, O, 0.0, 1), (0, CB, 0.0, 2), (2, CB, 0.0, 2)},
            0,
            {1},
        )
        m = minimize(a)
        assert m.num_states == 2  # the CB sink can never accept


class TestGrammarAutomaton:
    def test_deterministic_epsilon_free_zero_weights(self, semantic):
        assert semantic.is_deterministic
        assert all(w == 0.0 for _, _, w, _ in semantic.transitions)

    def test_language_at_small_n(self, semantic):
        assert semantic.language(1) == {(O,), (CB,)}
        assert semantic.language(2) == {
            (O, O), (O, CB), (CB, O), (CB, CB), (CB, CI),
        }

    @pytest.mark.parametrize("n", range(1, 5))
    def test_language_equals_rule_checker(self, semantic, language, n):
        lat = build_lattice(semantic, n)
        assert set(lat.accepting_sequences()) == language.as_set(n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_structural_language(self, structural, language, n):
        expected = {seq for seq in language.sequences(n) if is_structural(seq)}
        assert set(build_lattice(structural, n).accepting_sequences()) == expected

    def test_structural_is_strict_subset(self, semantic, structural):
        sem = semantic.language(3)
        struct = structural.language(3)
        assert struct < sem

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            grammar_automaton("typed")


class TestLattice:
    def test_paths_at_n1(self, semantic):
        lat = build_lattice(semantic, 1)
        assert set(lat.accepting_sequences()) == {(O,), (CB,)}

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_transition_count_doubles(self, semantic, m):
        small = build_lattice(semantic, m)
        big = build_lattice(semantic, 2 * m)
        assert big.num_transitions == 2 * small.num_transitions

    def test_grammar_table_shared_and_read_only(self, semantic):
        short, long = build_lattice(semantic, 3), build_lattice(semantic, 300)
        assert (short.n, long.n) == (3, 300)
        for name in ("edge_src", "edge_tag", "edge_dst", "next_state", "final_mask"):
            array = getattr(short, name)
            assert array is getattr(long, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_nondeterministic_grammar_rejected(self):
        nfa = Automaton(2, {(0, O, 0.0, 0), (0, O, 0.0, 1)}, 0, {0})
        with pytest.raises(ValueError):
            build_lattice(nfa, 2)

    def test_coreachability_masks(self, semantic):
        lat = build_lattice(semantic, 4)
        bwd = lat.coreachable_masks()
        assert bwd.shape == (5, lat.num_grammar_states)
        assert bwd[0, lat.initial]
        assert np.array_equal(bwd[4], lat.final_mask)
        # every accepting sequence stays inside the co-reachable states
        for seq in lat.accepting_sequences():
            q = lat.initial
            for pos, tag in enumerate(seq):
                q = int(lat.next_state[q, tag.index])
                assert bwd[pos + 1, q]

    def test_weight_validation(self, semantic):
        lat = build_lattice(semantic, 3)
        for dp in (viterbi, forward, marginals):
            with pytest.raises(ValueError):
                dp(lat, np.zeros((3, 4)))
            for bad_value in (np.inf, np.nan):
                bad = np.zeros((3, NUM_TAGS))
                bad[1, 2] = bad_value
                with pytest.raises(ValueError):
                    dp(lat, bad)

    def test_empty_language_flagged(self):
        no_final_at_start = Automaton(2, {(0, O, 0.0, 1)}, 0, {1})
        lat = build_lattice(no_final_at_start, 0)
        for dp in (viterbi, forward, marginals):
            with pytest.raises(EmptyLanguage):
                dp(lat, np.zeros((0, NUM_TAGS)))

    def test_random_well_formed_paths(self, semantic, language):
        rng = np.random.default_rng(7)
        lat = build_lattice(semantic, 5)
        for _ in range(50):
            assert random_well_formed(lat, rng) in language.as_set(5)


class TestExport:
    def test_small_golden(self):
        a = Automaton(
            2,
            {(0, O, 0.0, 0), (0, CB, 0.0, 1), (1, None, 0.0, 0)},
            0,
            {0},
        )
        assert export_text(a) == (
            "initial 0\n"
            "final 0\n"
            "0 CB 0.0 1\n"
            "0 O 0.0 0\n"
            "1 <eps> 0.0 0\n"
        )

    def test_grammar_export_shape(self, semantic):
        text = export_text(semantic)
        lines = text.strip().split("\n")
        assert lines[0] == "initial 0"
        n_final = sum(1 for l in lines if l.startswith("final "))
        assert n_final == len(semantic.finals)
        assert len(lines) == 1 + n_final + len(semantic.transitions)

    def test_export_round_trip_by_eye(self, semantic):
        # every transition line mentions a real tag symbol
        symbols = {t.symbol for t in TAGS} | {"<eps>"}
        for line in export_text(semantic).strip().split("\n"):
            parts = line.split()
            if parts[0] not in ("initial", "final"):
                assert parts[1] in symbols
