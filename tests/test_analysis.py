"""Histograms, mode reports, oracle comparisons and sweeps."""

import csv

import numpy as np
import pytest

from pbitsim import analysis
from pbitsim.analysis import (
    EmpiricalDistribution,
    distance_rows_to_csv,
    exact_law,
    histogram,
    mode_report,
    oracle_distance,
    single_machine_oracle,
    sweep_retention_spread,
    sweep_sampling_time,
    trace_distance,
)
from pbitsim.dynamics import run
from pbitsim.errors import ConfigurationError
from pbitsim.networks import build_and_machine, build_rca4
from pbitsim.oracle import euclidean_distance


class TestHistogram:
    def _trace(self, samples=400, seed=3):
        return run(build_and_machine(0.8), seed=seed, max_samples=samples)

    def test_counts_conserved(self):
        trace = self._trace()
        dist = histogram(trace, {"A": 0, "B": 1, "C": 2}, burn_in=0.1)
        assert dist.burn_in_discarded == 40
        assert dist.total == 360
        assert dist.counts.sum() == 360
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_label_order_sets_significance(self):
        trace = self._trace()
        fwd = histogram(trace, {"A": 0, "B": 1, "C": 2})
        rev = histogram(trace, {"C": 2, "B": 1, "A": 0})
        # reversing the label order permutes the words bit-reversed
        for word in range(8):
            flipped = int(format(word, "03b")[::-1], 2)
            assert fwd.counts[word] == rev.counts[flipped]

    def test_subset_marginalizes(self):
        trace = self._trace()
        full = histogram(trace, {"A": 0, "B": 1, "C": 2})
        only_c = histogram(trace, {"C": 2})
        assert only_c.counts[1] == sum(full.counts[w] for w in range(8) if w & 1)

    def test_burn_in_bounds(self):
        trace = self._trace()
        with pytest.raises(ConfigurationError):
            histogram(trace, {"A": 0}, burn_in=1.0)

    def test_empty_after_burn_in(self):
        trace = run(build_and_machine(0.8), seed=1, max_samples=0)
        with pytest.raises(ConfigurationError):
            histogram(trace, {"A": 0})

    def test_csv_format(self, tmp_path):
        trace = self._trace()
        dist = histogram(trace, {"A": 0, "B": 1, "C": 2})
        path = tmp_path / "histogram.csv"
        dist.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "state,label,count,probability"
        assert len(lines) == 9
        assert lines[1].split(",")[:2] == ["0", "000"]


def tied_dist(n_bits=10, seed=7):
    """Random counts of 0-3 over 2^n_bits states: many ties and unseen states."""
    counts = np.random.default_rng(seed).integers(0, 4, 1 << n_bits).astype(np.int64)
    return EmpiricalDistribution(labels=[f"b{k}" for k in range(n_bits)], counts=counts,
                                 total=int(counts.sum()), burn_in_discarded=0)


class TestOutputsMatchReference:
    """histogram.csv and the mode ranking against plain csv.writer and sorted."""

    @staticmethod
    def _check_to_csv(dist, tmp_path):
        ref = tmp_path / "reference.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["state", "label", "count", "probability"])
            probs = dist.probabilities
            for word in range(len(dist.counts)):
                writer.writerow([word, format(word, f"0{dist.n_bits}b"), int(dist.counts[word]),
                                 repr(float(probs[word]))])
        path = tmp_path / "histogram.csv"
        dist.to_csv(path)
        assert path.read_bytes() == ref.read_bytes()

    def test_to_csv_bytes(self, tmp_path):
        self._check_to_csv(tied_dist(), tmp_path)

    @pytest.mark.parametrize("case", ["sparse", "all_seen", "one_bit_last", "one_bit_first"])
    def test_to_csv_bytes_over_every_width(self, tmp_path, case):
        # 2^17 words have 1 to 6 digits; unseen rows come from blocks, seen
        # rows from the template, and the first and last rows are seen
        rng = np.random.default_rng(17)
        counts = {
            "sparse": np.zeros(1 << 17, dtype=np.int64),
            "all_seen": rng.integers(1, 5, 1 << 17),
            "one_bit_last": np.array([0, 7]),
            "one_bit_first": np.array([7, 0]),
        }[case]
        if case == "sparse":
            counts[rng.integers(0, 1 << 17, 500)] = rng.integers(1, 50, 500)
            counts[[0, 9, 10, 99_999, 100_000, (1 << 17) - 1]] = [3, 1, 2, 4, 1, 5]
        n_bits = len(counts).bit_length() - 1
        dist = EmpiricalDistribution(labels=[f"b{k}" for k in range(n_bits)], counts=counts,
                                     total=int(counts.sum()), burn_in_discarded=0)
        self._check_to_csv(dist, tmp_path)

    @pytest.mark.parametrize("k", [1, 3, 100, 1023, 1024, 1025])
    def test_mode_report_order(self, k):
        dist = tied_dist()
        probs = dist.probabilities
        order = sorted(range(len(probs)), key=lambda w: (-probs[w], w))
        ref = [{"state": w, "label": format(w, "010b"), "probability": float(probs[w])}
               for w in order[:k] if dist.counts[w] > 0 or k >= len(probs)]
        assert mode_report(dist, k) == ref


class TestModeReport:
    def _dist(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        n_bits = int(np.log2(len(counts)))
        return EmpiricalDistribution(
            labels=[f"b{k}" for k in range(n_bits)],
            counts=counts, total=int(counts.sum()), burn_in_discarded=0,
        )

    def test_descending_with_ties_by_word(self):
        report = mode_report(self._dist([5, 9, 9, 1]), k=3)
        assert [r["state"] for r in report] == [1, 2, 0]

    def test_skips_unseen_states(self):
        report = mode_report(self._dist([0, 0, 7, 0]), k=3)
        assert [r["state"] for r in report] == [2]

    def test_k_validated(self):
        with pytest.raises(ConfigurationError):
            mode_report(self._dist([1, 1, 1, 1]), k=0)


class TestOracleComparison:
    def test_single_machine_only(self):
        with pytest.raises(ConfigurationError):
            single_machine_oracle(build_rca4(1.0))

    def test_clamped_oracle_conditions(self):
        net = build_and_machine(0.8).with_clamps({"A": 1, "B": 1})
        exact = single_machine_oracle(net)
        assert exact.probabilities[0b111] == pytest.approx(0.9608342772032357)

    def test_distance_shrinks_with_samples(self):
        net = build_and_machine(0.8)
        coarse = oracle_distance(net, seed=5, samples=300)
        fine = oracle_distance(net, seed=5, samples=30_000)
        assert fine < coarse

    def test_deterministic(self):
        net = build_and_machine(0.8)
        assert oracle_distance(net, 5, 2000) == oracle_distance(net, 5, 2000)


class TestSweeps:
    def test_sampling_time_rows(self):
        net = build_and_machine(0.8)
        rows = sweep_sampling_time(net, seed=3, taus_us=[1000, 2000], samples=2000)
        assert [r["tau_us"] for r in rows] == [1000, 2000]
        assert rows[0]["tau_ratio"] == pytest.approx(1000 / 200_000)
        assert all(r["distance"] >= 0 for r in rows)

    def test_sweep_leaves_network_untouched(self):
        net = build_and_machine(0.8)
        before = net.machines[0].tau_sample_us
        sweep_sampling_time(net, seed=3, taus_us=[50_000], samples=500)
        assert net.machines[0].tau_sample_us == before

    def test_retention_rows(self):
        net = build_and_machine(0.8)
        plans = [[200_000] * 3, [137_000, 200_000, 263_000]]
        rows = sweep_retention_spread(net, seed=3, plans=plans, samples=2000)
        assert rows[0]["plan"] == [200_000] * 3
        assert rows[1]["tau_ratio"] == pytest.approx(1000 / 137_000)

    def test_retention_must_dominate_sampling(self):
        net = build_and_machine(0.8)
        net.set_tau_sample(5000)
        with pytest.raises(ConfigurationError):
            sweep_retention_spread(net, seed=3, plans=[[4000, 5000, 6000]], samples=100)

    @pytest.mark.parametrize("sweep, points", [
        (sweep_sampling_time, [1000, 2000, 4000]),
        (sweep_retention_spread, [[200_000] * 3, [137_000, 200_000, 263_000], 150_000]),
    ])
    def test_exact_law_built_once(self, monkeypatch, sweep, points):
        # timing never changes the law; each point used to rebuild it
        calls, exact = [], analysis.boltzmann_distribution

        def counting(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(analysis, "boltzmann_distribution", counting)
        rows = sweep(build_and_machine(0.8), 3, points, 500)
        assert len(rows) == 3
        assert len(calls) == 1

    def test_exact_marginal(self):
        net = build_and_machine(0.8)
        full = exact_law(net)
        # units (C, A): C is the high bit of the marginal word
        law = exact_law(net, [2, 0])
        for c in (0, 1):
            for a in (0, 1):
                want = sum(full[w] for w in range(8) if (w & 1) == c and (w >> 2) == a)
                assert law[2 * c + a] == pytest.approx(want)
        # every unit in order is the full law, bit for bit
        assert exact_law(net, [0, 1, 2]).tolist() == full.tolist()

    @pytest.mark.parametrize("sweep, point", [
        (sweep_sampling_time, 4000), (sweep_retention_spread, [150_000, 200_000, 250_000])])
    def test_subset_marginal(self, sweep, point):
        net = build_and_machine(0.8)
        (row,) = sweep(net, 3, [point], 2000, units=[2])
        # the same run, measured by hand over unit C alone
        net = net.copy()
        if sweep is sweep_sampling_time:
            net.set_tau_sample(point)
        else:
            net.set_retention(point)
        trace = run(net, analysis._derived_seed(3, 0), max_samples=2000)
        emp = histogram(trace, {"C": 2}, analysis.DEFAULT_BURN_IN)
        assert row["distance"] == euclidean_distance(emp.probabilities, exact_law(net, [2]))
        assert row["distance"] != trace_distance(trace, exact_law(net), analysis.DEFAULT_BURN_IN)

    def test_distance_csv(self, tmp_path):
        path = tmp_path / "distance.csv"
        distance_rows_to_csv(
            [{"tau_ratio": 0.005, "distance": 0.0399}], path
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau_ratio,distance"
        assert lines[1] == "0.005,0.0399"

    def test_distance_csv_with_plan_column(self, tmp_path):
        path = tmp_path / "distance.csv"
        rows = [{"plan": [137_000, 263_000], "tau_ratio": 0.5, "distance": 0.25}]
        distance_rows_to_csv(rows, path, ("plan", "tau_ratio", "distance"))
        lines = path.read_text().strip().splitlines()
        assert lines == ["plan,tau_ratio,distance", "137000 263000,0.5,0.25"]
