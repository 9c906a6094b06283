from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multiplicity.core import (
    Dataset,
    DimensionMismatchError,
    Example,
    LinearClassifier,
    SingleClassError,
    conflict_count,
    empirical_risk,
    oversample_minority,
    predict,
)
from multiplicity.formulations import build_baseline_mip
from conftest import xor_dataset


def clf(*coefs):
    return LinearClassifier.from_raw(coefs)


class TestTypes:
    def test_example_requires_intercept_slot(self):
        with pytest.raises(ValueError):
            Example((0.0, 1.0), 1)

    def test_example_rejects_bad_label(self):
        with pytest.raises(ValueError):
            Example((1.0, 0.0), 0)

    def test_example_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            Example((1.0, 0.0), 1, weight=0)

    def test_classifier_requires_unit_l1(self):
        with pytest.raises(ValueError):
            LinearClassifier((0.5, 0.2))
        LinearClassifier((0.5, -0.5))

    def test_zero_classifier_is_tolerated(self):
        z = LinearClassifier((0.0, 0.0))
        assert predict(z, Example((1.0, 3.0), 1)) == -1

    def test_from_raw_rescales(self):
        h = clf(2.0, -6.0)
        assert h.coefficients == (0.25, -0.75)

    def test_rate_is_exact(self):
        report = empirical_risk(clf(1.0, 0.0), Dataset.build([Example((1.0, 0.0), 1)] * 3))
        assert report.rate == Fraction(0)


class TestPredict:
    def test_positive_score(self):
        assert predict(clf(0.0, 1.0, 0.0), Example((1.0, 1.0, 0.0), 1)) == 1

    def test_zero_score_tie_rule(self):
        assert predict(clf(0.0, 1.0, 0.0), Example((1.0, 0.0, 1.0), 1)) == -1

    def test_zero_score_tie_rule_mixed(self):
        h = LinearClassifier((-0.5, 0.25, 0.25))
        assert predict(h, Example((1.0, 1.0, 1.0), 1)) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            predict(clf(1.0, 0.0), Example((1.0, 0.0, 0.0), 1))

    @given(
        st.lists(st.floats(-1, 1), min_size=2, max_size=5),
        st.floats(0.01, 100.0),
        st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    )
    def test_scale_direction_invariance(self, coefs, alpha, tail):
        if sum(abs(v) for v in coefs) == 0:
            coefs[0] = 1.0
        h = LinearClassifier.from_raw(coefs)
        scaled = LinearClassifier.from_raw([alpha * v for v in h.coefficients])
        x = Example(tuple([1.0] + tail[: len(coefs) - 1] + [0.0] * (len(coefs) - 1 - len(tail))), 1)
        # away from exact ties; renormalization rounding can flip a true-zero
        # score's sign, and the boundary has its own deterministic rule
        assume(abs(h.score(x.features)) > 1e-9)
        assert predict(h, x) == predict(scaled, x)


class TestRisk:
    def test_xor_figure_values(self, xor):
        # one optimal model errs exactly on the (1,1) cell
        h_a = clf(-0.2, 0.4, 0.4)
        assert empirical_risk(h_a, xor).rate == Fraction(1, 4)

    def test_separable_pair(self):
        data = Dataset.build(
            [Example((1.0, 1.0), 1), Example((1.0, -1.0), -1)]
        )
        assert empirical_risk(clf(0.0, 1.0), data).mistakes == 0

    def test_label_flip_complement(self, xor):
        h = clf(-0.2, 0.4, 0.4)
        flipped = Dataset.build(
            [Example(ex.features, -ex.label, weight=ex.weight) for ex in xor.examples]
        )
        assert (
            empirical_risk(h, xor).rate + empirical_risk(h, flipped).rate == 1
        )

    def test_negation_complement_without_zero_scores(self, xor):
        h = clf(-0.2, 0.4, 0.4)
        assert all(abs(h.score(ex.features)) > 1e-12 for ex in xor.examples)
        assert (
            empirical_risk(h, xor).rate + empirical_risk(h.negated(), xor).rate == 1
        )


class TestConflictCount:
    def test_xor_pairwise_fifty(self, xor):
        h_a = clf(-0.2, 0.4, 0.4)   # errs on (1,1)
        h_b = clf(-0.2, -0.4, 0.4)  # errs on (1,0)
        report = conflict_count(h_a, h_b, xor)
        assert (report.mistakes, report.n) == (50, 100)

    def test_identity_and_negation(self, xor):
        h = clf(-0.2, 0.4, 0.4)
        assert conflict_count(h, h, xor).mistakes == 0
        assert conflict_count(h, h.negated(), xor).mistakes == xor.n

    @given(st.data())
    @settings(max_examples=50)
    def test_symmetry_and_triangle(self, data):
        coef_lists = [
            data.draw(
                st.lists(
                    st.floats(-1, 1).filter(lambda v: abs(v) > 1e-3),
                    min_size=3,
                    max_size=3,
                )
            )
            for _ in range(3)
        ]
        hs = [LinearClassifier.from_raw(c) for c in coef_lists]
        d = xor_dataset()
        c01 = conflict_count(hs[0], hs[1], d).mistakes
        c10 = conflict_count(hs[1], hs[0], d).mistakes
        c12 = conflict_count(hs[1], hs[2], d).mistakes
        c02 = conflict_count(hs[0], hs[2], d).mistakes
        assert c01 == c10
        assert c02 <= c01 + c12


class TestOversample:
    def test_balanced_unchanged(self, xor):
        assert oversample_minority(xor, seed=0) is xor

    def test_exact_division(self):
        examples = [Example((1.0, float(i)), 1) for i in range(3)]
        examples += [Example((1.0, 10.0 + i), -1) for i in range(6)]
        out = oversample_minority(Dataset.build(examples), seed=0)
        assert [ex.weight for ex in out.examples[:3]] == [2, 2, 2]

    def test_uneven_totals_balance(self):
        examples = [Example((1.0, float(i)), 1) for i in range(4)]
        examples += [Example((1.0, 10.0 + i), -1) for i in range(6)]
        out = oversample_minority(Dataset.build(examples), seed=0)
        pos = sum(ex.weight for ex in out.examples if ex.label == 1)
        neg = sum(ex.weight for ex in out.examples if ex.label == -1)
        assert pos == neg == 6
        assert sorted(ex.weight for ex in out.examples if ex.label == 1) == [1, 1, 2, 2]

    def test_deterministic_per_seed(self):
        examples = [Example((1.0, float(i)), 1) for i in range(4)]
        examples += [Example((1.0, 10.0 + i), -1) for i in range(6)]
        d = Dataset.build(examples)
        a = oversample_minority(d, seed=3)
        b = oversample_minority(d, seed=3)
        assert [e.weight for e in a.examples] == [e.weight for e in b.examples]

    def test_single_class_rejected(self):
        d = Dataset.build([Example((1.0, 0.0), 1)])
        with pytest.raises(SingleClassError):
            oversample_minority(d, seed=0)


class TestCells:
    def test_single_pair_is_one_mixed_cell(self):
        d = Dataset.build([Example((1.0, 2.0), 1), Example((1.0, 2.0), -1)])
        assert d.cells.X.tolist() == [[1.0, 2.0]]
        assert d.cells.pos.tolist() == [1]
        assert d.cells.neg.tolist() == [1]
        assert d.cells.index.tolist() == [0, 0]
        assert build_baseline_mip(d).objective_offset == 1

    def test_xor_cells_are_pure(self, xor):
        assert xor.cells.X.tolist() == [list(ex.features) for ex in xor.examples]
        assert xor.cells.pos.tolist() == [0, 25, 25, 0]
        assert xor.cells.neg.tolist() == [25, 0, 0, 25]
        assert build_baseline_mip(xor).objective_offset == 0

    def test_offset_is_min_count_and_reweighting_recomputes(self):
        examples = [Example((1.0, 1.0), 1) for _ in range(3)]
        examples += [Example((1.0, 1.0), -1) for _ in range(2)]
        examples.append(Example((1.0, 0.0), -1))
        d = Dataset.build(examples)
        assert d.cells.pos.tolist() == [3, 0]
        assert d.cells.neg.tolist() == [2, 1]
        assert d.cells.index.tolist() == [0, 0, 0, 0, 0, 1]
        assert build_baseline_mip(d).objective_offset == 2
        heavier = d.with_weights([1, 1, 1, 4, 1, 2])
        assert heavier.cells.pos.tolist() == [3, 0]
        assert heavier.cells.neg.tolist() == [5, 2]
        assert build_baseline_mip(heavier).objective_offset == 3

    def test_mixed_cell_error_dichotomy(self):
        # a margin-clear classifier errs on exactly min(P_c, N_c) of a cell
        # predicted with its majority, and on max(P_c, N_c) otherwise
        examples = [
            Example((1.0, 2.0), 1, weight=2),
            Example((1.0, 2.0), -1),
            Example((1.0, -1.0), 1),
        ]
        d = Dataset.build(examples)
        assert d.cells.X.tolist() == [[1.0, 2.0], [1.0, -1.0]]
        for coefs in [(0.1, 0.9), (-0.3, 0.7), (0.5, -0.5), (-1.0, 0.0)]:
            h = LinearClassifier.from_raw(coefs)
            if abs(h.score((1.0, 2.0))) > 1e-12:
                pred = predict(h, d.examples[0])
                errs = sum(
                    ex.weight for ex in d.examples[:2] if ex.label != pred
                )
                assert errs == (1 if pred == 1 else 2)
