"""Histograms, mode reports, oracle comparisons and sweeps."""

import numpy as np
import pytest

from pbitsim import analysis
from pbitsim.analysis import (
    EmpiricalDistribution,
    distance_rows_to_csv,
    histogram,
    mode_report,
    oracle_distance,
    single_machine_oracle,
    sweep_retention_spread,
    sweep_sampling_time,
)
from pbitsim.dynamics import run
from pbitsim.errors import ConfigurationError
from pbitsim.networks import build_and_machine, build_rca4


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
