"""Adversarial scenario benchmark: committee capture vs Byzantine fraction.

Sweeps backend (chord, kademlia) x adversarial fraction (0-30%) x lie
strategy (lookup, census, eclipse) through the scenario runner and
records, per cell: the fraction of completed draws captured by Byzantine
peers, sampling-bias amplification (capture vs Byzantine head-count),
uniformity over the *honest* population, and committee capture
probability -- empirical over the run's own draws against the analytic
binomial tail a uniform sampler would give the same head-count
(``repro.apps.committee``).

Two in-run gates keep the artifact honest:

- **zero-overhead-off** (the PR-7 bare-twin discipline): the fraction-0
  run of each backend is repeated against a *bare twin* of the transport
  hot path -- the pre-adversary bodies of ``rpc_from``/``oneway_from``,
  monkeypatched in so the comparison never goes stale -- and every
  statistic must be deep-equal.  An honest run provably pays nothing
  for the adversary hook beyond one attribute read.
- **harness self-test** (the planted bug): before any verdict is
  recorded, the statistical harness (``repro.adversary.verify``) must
  *reject* a deliberately biased sampler (one peer drawn with double
  weight) and *accept* the honest uniform one, under fixed seeds.  A
  harness that cannot find a planted bug has no business blessing the
  sweep.

Results go to ``BENCH_adversary.json`` at the repo root (schema in
docs/BENCHMARKS.md).  Run standalone
(``PYTHONPATH=src python benchmarks/bench_adversary.py``, add
``--quick`` for the CI smoke configuration) or under pytest.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# The scenario report's chi-square imports scipy on first use, and this bench times run_scenario.
import scipy.stats  # noqa: F401

from repro.adversary.verify import verify_capture, verify_uniformity
from repro.bench.harness import Table, write_bench_json
from repro.scenarios import adversary_table, preset, run_scenario
from repro.sim.network import RpcTimeout, RpcTransport

SEED = 0
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_adversary.json"

BACKENDS = ("chord", "kademlia")
STRATEGIES = ("lookup", "census", "eclipse")
FRACTIONS = (0.0, 0.05, 0.10, 0.20, 0.30)
QUICK_STRATEGIES = ("lookup",)
QUICK_FRACTIONS = (0.0, 0.20)


# -- the bare twin ------------------------------------------------------
#
# Verbatim pre-adversary bodies of the two transport methods the
# adversary hook touched (the PR-7 instrumented versions, minus the
# ``adversary.active`` guard).  Monkeypatched in for the fraction-0
# baseline so the zero-overhead comparison is against real removed code,
# not a remembered diff.


def _bare_rpc_from(self, source_id, target_id, method, *args, **kwargs):
    self._count_call()
    target, factor = self._admit(source_id, target_id, method, "rpc")
    self._count_msgs(2)
    mm = self._method_messages
    try:
        mm[method] += 2
    except KeyError:
        mm[method] = 2
    delta = factor * (
        self._latency.sample(self._rng) + self._latency.sample(self._rng)
    )
    tracer = self.tracer
    if tracer.active:
        start = self.elapsed
        self.elapsed = start + delta
        tracer.on_rpc(source_id, target_id, method, "rpc", start, self.elapsed, "ok")
    else:
        self.elapsed += delta
    result = getattr(target, method)(*args, **kwargs)
    if self.faults.blocked(target_id, source_id):
        self._count_timeout()
        tracer = self.tracer
        if tracer.active:
            start = self.elapsed
            self.elapsed = start + self._timeout
            tracer.on_rpc(
                source_id, target_id, method, "rpc",
                start, self.elapsed, "reply-partitioned",
            )
        else:
            self.elapsed += self._timeout
        raise RpcTimeout(f"rpc {method} to node {target_id}: reply partitioned")
    return result


def _bare_oneway_from(self, source_id, target_id, method, *args, **kwargs):
    self._count_call()
    target, factor = self._admit(source_id, target_id, method, "oneway")
    self._count_msgs(1)
    mm = self._method_messages
    try:
        mm[method] += 1
    except KeyError:
        mm[method] = 1
    delta = factor * self._latency.sample(self._rng)
    tracer = self.tracer
    if tracer.active:
        start = self.elapsed
        self.elapsed = start + delta
        tracer.on_rpc(
            source_id, target_id, method, "oneway", start, self.elapsed, "ok"
        )
    else:
        self.elapsed += delta
    return getattr(target, method)(*args, **kwargs)


@contextmanager
def bare_transport():
    """Swap the transport hot path for its pre-adversary twin."""
    saved = (RpcTransport.rpc_from, RpcTransport.oneway_from)
    RpcTransport.rpc_from = _bare_rpc_from
    RpcTransport.oneway_from = _bare_oneway_from
    try:
        yield
    finally:
        RpcTransport.rpc_from, RpcTransport.oneway_from = saved


# -- the planted-bug self-test ------------------------------------------


def harness_self_test() -> dict:
    """The statistical harness must catch a planted bias and pass honesty.

    Population of 64 peers; the biased sampler gives peer 0 double
    weight (a 1/64 absolute bias -- small, the kind a subtle bug would
    plant).  Fixed seeds end to end, so this verdict never flakes.
    """
    population = range(64)

    def honest(rng):
        return rng.randrange(64)

    def biased(rng):
        # Peer 0 wins twice as often: draw over 65 slots, fold the
        # extra slot onto 0.
        pick = rng.randrange(65)
        return 0 if pick == 64 else pick

    honest_report = verify_uniformity(
        honest, population, trials=8, draws=4000, alpha=0.01, seed=SEED
    )
    biased_report = verify_uniformity(
        biased, population, trials=8, draws=4000, alpha=0.01, seed=SEED
    )
    return {
        "honest_accepted": honest_report.accepted,
        "biased_rejected": not biased_report.accepted,
        "honest": honest_report.to_record(),
        "biased": biased_report.to_record(),
    }


# -- running one configuration ------------------------------------------


def bench_spec(backend: str, fraction: float, strategy: str, quick: bool):
    scale = dict(n=24, requests=60) if quick else dict(n=32, requests=150)
    return preset(
        "byzantine",
        backend=backend,
        seed=SEED,
        adv_fraction=fraction,
        adv_strategy=strategy,
        **scale,
    )


def fingerprint(result) -> dict:
    """The run's full record minus wall-clock (the only honest diff)."""
    record = result.to_record()
    record.pop("wall_seconds", None)
    return record


def cell_record(result) -> dict:
    """The per-cell summary entering the sweep table."""
    spec = result.spec
    adv = result.adversary
    amps = [
        s.bias_amplification for s in result.shards if s.bias_amplification is not None
    ]
    honest_ps = [s.honest_chi2_p for s in result.shards if s.honest_chi2_p is not None]
    honest_tvs = [s.honest_tv for s in result.shards if s.honest_tv is not None]
    committee = adv["committee"] if adv else None
    capture_band = None
    if committee and committee["elections"] and committee["analytic_capture"] is not None:
        # Where the observed committee-capture rate falls relative to
        # the uniform-sampler binomial band -- outside it means the
        # substrate's bias amplification is statistically visible even
        # at this election count (context, not a gate: leaving the band
        # is the attack succeeding, not the benchmark failing).
        capture_band = verify_capture(
            committee["empirical_capture"],
            committee["analytic_capture"],
            committee["elections"],
            alpha=1e-6,
        )
    return {
        "fraction": spec.adv_fraction,
        "strategy": spec.adv_strategy if spec.adversarial else None,
        "completed": result.completed,
        "failed": result.failed,
        "ring_recovered": result.ring_recovered,
        "messages_per_sample": result.messages_per_sample,
        "capture_rate": adv["capture_rate"] if adv else None,
        "bias_amplification": max(amps) if amps else None,
        "honest_chi2_p": min(honest_ps) if honest_ps else None,
        "honest_tv": max(honest_tvs) if honest_tvs else None,
        "lies_told": sum(s["lies_told"] for s in adv["shards"]) if adv else 0,
        "committee": committee,
        "capture_band": capture_band,
    }


def measure_backend(backend: str, quick: bool) -> dict:
    fractions = QUICK_FRACTIONS if quick else FRACTIONS
    strategies = QUICK_STRATEGIES if quick else STRATEGIES

    # Fraction 0 first, twice: live hot path vs the pre-adversary twin.
    # Bit-identity here IS the zero-overhead-off guarantee -- an honest
    # run's every statistic is unchanged by the adversary hook existing.
    spec0 = bench_spec(backend, 0.0, "lookup", quick)
    cpu0 = time.process_time()
    live0 = run_scenario(spec0)
    live_cpu = time.process_time() - cpu0
    with bare_transport():
        cpu0 = time.process_time()
        bare0 = run_scenario(spec0)
        bare_cpu = time.process_time() - cpu0
    identical = fingerprint(live0) == fingerprint(bare0)

    results = [live0]
    cells = [cell_record(live0)]
    for fraction in fractions:
        if fraction == 0.0:
            continue
        for strategy in strategies:
            result = run_scenario(bench_spec(backend, fraction, strategy, quick))
            results.append(result)
            cells.append(cell_record(result))
    return {
        "backend": backend,
        "spec": {"n": spec0.n, "requests": spec0.requests, "seed": spec0.seed},
        "zero_overhead": {
            "identical": identical,
            "cpu_ratio": live_cpu / bare_cpu if bare_cpu > 0 else None,
        },
        "sweep": cells,
        "_results": results,  # stripped before emit (tables only)
    }


# -- reporting ----------------------------------------------------------


def sweep_table(runs) -> Table:
    table = Table(
        title="committee capture vs adversarial fraction",
        headers=["backend", "fraction", "lie", "captured", "amp",
                 "honest chi2 p", "committee emp", "committee unif", "ring ok"],
    )
    for run in runs:
        for cell in run["sweep"]:
            committee = cell["committee"] or {}
            table.add_row(
                run["backend"],
                cell["fraction"],
                cell["strategy"] or "-",
                cell["capture_rate"] if cell["capture_rate"] is not None else 0.0,
                cell["bias_amplification"]
                if cell["bias_amplification"] is not None
                else float("nan"),
                cell["honest_chi2_p"]
                if cell["honest_chi2_p"] is not None
                else float("nan"),
                committee.get("empirical_capture")
                if committee.get("empirical_capture") is not None
                else float("nan"),
                committee.get("analytic_capture")
                if committee.get("analytic_capture") is not None
                else float("nan"),
                cell["ring_recovered"],
            )
    table.note("captured: fraction of completed draws landing on a Byzantine peer")
    table.note("amp: capture rate / live Byzantine fraction (1.0 = no amplification)")
    table.note("committee emp vs unif: observed capture rate vs the binomial tail "
               "under uniform sampling with the same Byzantine head-count")
    return table


def check_results(runs, self_test) -> list[str]:
    problems = []
    if not self_test["honest_accepted"]:
        problems.append("harness self-test: honest uniform sampler was rejected")
    if not self_test["biased_rejected"]:
        problems.append("harness self-test: planted biased sampler was accepted")
    for run in runs:
        backend = run["backend"]
        if not run["zero_overhead"]["identical"]:
            problems.append(
                f"{backend}: fraction-0 run diverged from the pre-adversary twin"
            )
        for cell in run["sweep"]:
            if cell["failed"] and cell["failed"] > cell["completed"]:
                problems.append(
                    f"{backend} f={cell['fraction']:g} {cell['strategy']}: "
                    f"more failures than completions"
                )
    return problems


def emit(runs, self_test, out: Path, quick: bool) -> Path:
    record = {
        "seed": SEED,
        "quick": quick,
        "harness_self_test": self_test,
        "backends": {
            run["backend"]: {k: v for k, v in run.items() if not k.startswith("_")}
            for run in runs
        },
        "generated_unix": time.time(),
    }
    return write_bench_json(out, record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke configuration")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args(argv)

    self_test = harness_self_test()
    runs = [measure_backend(backend, args.quick) for backend in BACKENDS]
    sweep_table(runs).show()
    adversarial = [r for run in runs for r in run["_results"] if r.adversary]
    if adversarial:
        adversary_table(adversarial).show()
    print(
        f"harness self-test: honest accepted={self_test['honest_accepted']} "
        f"(min p {self_test['honest']['min_p_value']:.3f}), "
        f"biased rejected={self_test['biased_rejected']} "
        f"(min p {self_test['biased']['min_p_value']:.2e})"
    )

    path = emit(runs, self_test, args.out, quick=args.quick)
    print(f"wrote {path}")

    problems = check_results(runs, self_test)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def test_adversary_bench_quick(show, tmp_path):
    """CI-scale gate: zero-overhead bit-identity at fraction 0, a working
    planted-bug self-test, and nonzero capture under lookup lies."""
    self_test = harness_self_test()
    assert self_test["honest_accepted"]
    assert self_test["biased_rejected"]
    runs = [measure_backend(backend, quick=True) for backend in BACKENDS]
    show(sweep_table(runs))
    emit(runs, self_test, tmp_path / "BENCH_adversary.json", quick=True)
    for run in runs:
        assert run["zero_overhead"]["identical"], run["backend"]
        adversarial = [c for c in run["sweep"] if c["fraction"] > 0]
        assert adversarial, run["backend"]
        for cell in adversarial:
            assert cell["capture_rate"] is not None
            assert cell["capture_rate"] > 0, (run["backend"], cell["fraction"])


if __name__ == "__main__":
    raise SystemExit(main())
