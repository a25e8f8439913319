"""Tests for the parallel campaign runner (repro.experiments.campaign)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ACCEPTS_SEED, REGISTRY
from repro.experiments.campaign import (
    PARAM_GRIDS,
    Shard,
    cache_key,
    derive_shard_seed,
    expand_campaign,
    repro_source_digest,
    run_campaign,
    write_manifest,
)
from repro.experiments.harness import ExperimentResult
from repro.simulation.random import derive_seed

#: Synthetic experiments from tests/helpers.py, injected via targets=.
SYNTH_TARGETS = {
    "tiny": "tests.helpers:run_tiny",
    "tiny2": "tests.helpers:run_tiny",
    "boom": "tests.helpers:run_boom",
    "crash": "tests.helpers:run_exit",
    "sleepy": "tests.helpers:run_sleepy",
}
SYNTH_SEEDED = frozenset(SYNTH_TARGETS)


# ---------------------------------------------------------------------------
# Seed derivation


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed("campaign", 0, "table1", "{}", 0)
    assert a == derive_seed("campaign", 0, "table1", "{}", 0)
    assert a != derive_seed("campaign", 0, "table1", "{}", 1)
    assert a != derive_seed("campaign", 1, "table1", "{}", 0)
    assert a != derive_seed("campaign", 0, "figure1", "{}", 0)
    assert 0 <= a < 2**63


def test_shard_seed_independent_of_order():
    seeds = [derive_shard_seed("table1", (), slot, 0) for slot in range(5)]
    assert len(set(seeds)) == 5
    # Re-deriving in any order yields the same values.
    assert [derive_shard_seed("table1", (), s, 0) for s in (3, 1, 4, 0, 2)] == [
        seeds[3], seeds[1], seeds[4], seeds[0], seeds[2]
    ]


# ---------------------------------------------------------------------------
# Expansion


def test_expand_only_seed_accepting_experiments_fan_out():
    shards = expand_campaign(["example1", "table1"], seeds=3)
    by_name = {}
    for shard in shards:
        by_name.setdefault(shard.experiment, []).append(shard)
    assert len(by_name["example1"]) == 1  # deterministic: one shard
    assert len(by_name["table1"]) == 3
    assert by_name["example1"][0].seed is None
    assert all(s.seed is not None for s in by_name["table1"])


def test_expand_applies_param_grid_for_faults():
    shards = expand_campaign(["faults"], seeds=1)
    assert len(shards) == len(PARAM_GRIDS["faults"])
    params = [dict(s.params) for s in shards]
    assert {"algorithms": ("SFQ",), "include_churn": False} in params
    assert {"algorithms": (), "include_churn": True} in params


def test_expand_unknown_experiment_raises():
    with pytest.raises(KeyError):
        expand_campaign(["nope"])


def test_expand_direct_seed_mode():
    shards = expand_campaign(["table1"], seeds=2, base_seed=7,
                             derive_seeds=False)
    assert [s.seed for s in shards] == [7, 8]
    shards = expand_campaign(["table1"], seeds=1, base_seed=None,
                             derive_seeds=False)
    assert shards[0].seed is None


# ---------------------------------------------------------------------------
# Cache keys


def test_cache_key_sensitive_to_all_inputs():
    shard = Shard("tiny", "tests.helpers:run_tiny", (("label", "x"),), 0, 5)
    base = cache_key(shard, "digest-a")
    assert base == cache_key(shard, "digest-a")
    assert base != cache_key(shard, "digest-b")
    other = Shard("tiny", "tests.helpers:run_tiny", (("label", "y"),), 0, 5)
    assert base != cache_key(other, "digest-a")
    reseeded = Shard("tiny", "tests.helpers:run_tiny", (("label", "x"),), 0, 6)
    assert base != cache_key(reseeded, "digest-a")


def test_source_digest_changes_with_content(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    d1 = repro_source_digest(tmp_path)
    assert d1 == repro_source_digest(tmp_path)
    (tmp_path / "a.py").write_text("x = 2\n")
    assert repro_source_digest(tmp_path) != d1


# ---------------------------------------------------------------------------
# Campaign execution: cache, failure isolation, timeouts


def test_campaign_cache_roundtrip(tmp_path):
    kwargs = dict(targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
                  results_dir=str(tmp_path))
    cold = run_campaign(["tiny", "tiny2"], seeds=2, jobs=1, **kwargs)
    assert cold.stats == dict(shards=4, ok=4, failed=0, cached=0,
                              retried=0, jobs=1, seeds=2)
    warm = run_campaign(["tiny", "tiny2"], seeds=2, jobs=1, **kwargs)
    assert warm.stats["cached"] == 4
    assert [s.render() for s in cold.summaries.values()] == [
        s.render() for s in warm.summaries.values()
    ]
    # --no-cache ignores the populated cache.
    fresh = run_campaign(["tiny"], seeds=1, jobs=1, cache=False, **kwargs)
    assert fresh.stats["cached"] == 0
    # A different base seed is a different content address: cache misses.
    other = run_campaign(["tiny", "tiny2"], seeds=2, jobs=1, base_seed=1,
                         **kwargs)
    assert other.stats["cached"] == 0


def test_cache_files_are_content_addressed(tmp_path):
    run_campaign(["tiny"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
                 accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path))
    cache_dir = tmp_path / ".cache"
    files = list(cache_dir.glob("*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["schema"] == "campaign-shard/1"
    assert payload["shard"]["experiment"] == "tiny"
    restored = ExperimentResult.from_payload(payload["result"])
    assert restored.rows


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    run_campaign(["tiny"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
                 accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path))
    for path in (tmp_path / ".cache").glob("*.json"):
        path.write_text("{not json")
    again = run_campaign(["tiny"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
                         accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path))
    assert again.stats["cached"] == 0
    assert again.stats["ok"] == 1


def test_raising_shard_fails_without_aborting_others():
    campaign = run_campaign(
        ["tiny", "boom", "tiny2"], seeds=1, jobs=2, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    statuses = {o.shard.experiment: o.status for o in campaign.outcomes}
    assert statuses == {"tiny": "ok", "boom": "failed", "tiny2": "ok"}
    boom = next(o for o in campaign.outcomes if o.shard.experiment == "boom")
    assert "RuntimeError" in boom.error
    assert boom.attempts == 1  # deterministic raise: no retry
    # The failure lands in the summary, not an exception.
    assert any("boom" in s.experiment or "failed" in s.description
               for s in campaign.summaries.values())


def test_crashed_worker_is_retried_then_failed():
    campaign = run_campaign(
        ["crash", "tiny"], seeds=1, jobs=2, cache=False, retries=1,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    crash = next(o for o in campaign.outcomes if o.shard.experiment == "crash")
    tiny = next(o for o in campaign.outcomes if o.shard.experiment == "tiny")
    assert tiny.status == "ok"
    assert crash.status == "failed"
    assert crash.attempts == 2  # original + one bounded retry
    assert "died" in crash.error


@pytest.mark.parametrize("jobs", [1, 2])
def test_timeout_shard_marked_failed_not_hung(jobs):
    grids = {"sleepy": [{"seconds": 30.0}], "tiny": [{}]}
    campaign = run_campaign(
        ["sleepy", "tiny"], seeds=1, jobs=jobs, cache=False, timeout=1.0,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED, grids=grids,
    )
    sleepy = next(o for o in campaign.outcomes if o.shard.experiment == "sleepy")
    tiny = next(o for o in campaign.outcomes if o.shard.experiment == "tiny")
    assert sleepy.status == "timeout"
    assert tiny.status == "ok"
    assert campaign.wall_s < 25.0  # nowhere near the 30s sleep
    assert campaign.stats["failed"] == 1


def test_failed_shards_do_not_poison_cache(tmp_path):
    campaign = run_campaign(
        ["boom"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
        accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path),
    )
    assert campaign.stats["failed"] == 1
    cache_dir = tmp_path / ".cache"
    assert not cache_dir.exists() or not list(cache_dir.glob("*.json"))
    again = run_campaign(
        ["boom"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
        accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path),
    )
    assert again.stats["cached"] == 0


# ---------------------------------------------------------------------------
# Determinism under parallelism (the acceptance criterion)


def test_jobs4_seeds5_bit_identical_to_jobs1():
    """--jobs 4 --seeds 5 must render bit-identically to --jobs 1."""
    names = ["ebf", "residual", "vbr", "faults"]
    serial = run_campaign(names, seeds=5, jobs=1, cache=False)
    parallel = run_campaign(names, seeds=5, jobs=4, cache=False)
    assert all(o.ok for o in serial.outcomes)
    assert all(o.ok for o in parallel.outcomes)
    assert list(serial.summaries) == list(parallel.summaries)
    for name in serial.summaries:
        assert serial.summaries[name].render() == parallel.summaries[name].render(), name
        assert serial.summaries[name].to_json() == parallel.summaries[name].to_json(), name


def test_scale_digest_identical_across_jobs(tmp_path):
    grids = {"scale": [{"flows": 300, "packets_target": 2_000,
                        "churn_cycles": 25}]}

    def digest(jobs, where):
        campaign = run_campaign(
            ["scale"], seeds=1, jobs=jobs, cache=False,
            results_dir=str(tmp_path / where), grids=grids,
        )
        (outcome,) = campaign.outcomes
        assert outcome.status == "ok", outcome.error
        (point,) = outcome.result.data["points"]
        assert point["churn_joined"] == point["churn_detached"] == 25
        return point["digest"]

    # The departure-schedule digest is a pure function of (seed, params):
    # in-process and worker-pool execution must agree exactly.
    assert digest(1, "j1") == digest(2, "j2")


#: Runs a small campaign and prints every summary's JSON (hash-seed probe).
_HASH_SEED_PROBE = """
import json, sys
from repro.experiments.campaign import run_campaign
campaign = run_campaign(
    ["table1", "figure1", "residual", "faults"], seeds=1, jobs=1, cache=False
)
assert all(o.ok for o in campaign.outcomes), campaign.outcomes
json.dump({n: s.to_json() for n, s in campaign.summaries.items()}, sys.stdout)
"""


def test_summaries_independent_of_pythonhashseed():
    """Set iteration order follows the per-process string-hash seed, so
    an unordered collection reaching the schedule (in any function, or
    across calls) shows up as a summary that changes with PYTHONHASHSEED."""
    src = str(Path(__file__).resolve().parent.parent / "src")

    def summaries(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    first = summaries(0)
    assert sorted(first) == ["faults", "figure1", "residual", "table1"]
    assert summaries(1) == first


def test_cached_and_fresh_shards_are_indistinguishable(tmp_path):
    names = ["residual", "vbr"]
    cold = run_campaign(names, seeds=2, jobs=1, results_dir=str(tmp_path))
    warm = run_campaign(names, seeds=2, jobs=1, results_dir=str(tmp_path))
    assert warm.stats["cached"] == warm.stats["shards"]
    for name in cold.summaries:
        assert cold.summaries[name].to_json() == warm.summaries[name].to_json()


# ---------------------------------------------------------------------------
# Aggregation and artifacts


def test_faults_grid_concatenation_matches_monolithic_run():
    from repro.experiments.fault_tolerance import run_fault_tolerance

    mono = run_fault_tolerance(seed=5)
    campaign = run_campaign(["faults"], jobs=1, cache=False,
                            derive_seeds=False, base_seed=5)
    summary = campaign.summaries["faults"]
    assert summary.headers == mono.headers
    assert summary.rows == mono.rows
    assert summary.notes == mono.notes


def test_multi_seed_summary_aggregates_mean_and_ranges():
    campaign = run_campaign(
        ["tiny"], seeds=3, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    summary = campaign.summaries["tiny"]
    [row] = summary.rows
    seeds = [o.shard.seed for o in campaign.outcomes]
    assert row[1] == pytest.approx(sum(seeds) / 3)
    assert row[2] == pytest.approx(sum(s % 97 for s in seeds) / 3)
    [ranges] = summary.data["ranges"]
    assert ranges[0][1] == [pytest.approx(min(seeds)), pytest.approx(max(seeds))]
    assert any("means over 3" in note for note in summary.notes)


def test_manifest_written_and_machine_readable(tmp_path):
    campaign = run_campaign(
        ["tiny", "boom"], seeds=1, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    path = tmp_path / "campaign_manifest.json"
    write_manifest(campaign, path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == "campaign-manifest/1"
    assert payload["stats"]["shards"] == 2
    assert payload["stats"]["failed"] == 1
    statuses = {s["key"]["experiment"]: s["status"] for s in payload["shards"]}
    assert statuses == {"tiny": "ok", "boom": "failed"}


def test_campaign_summary_markdown_renders():
    from repro.analysis.report import campaign_to_markdown

    campaign = run_campaign(
        ["tiny", "boom"], seeds=2, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    text = campaign_to_markdown(campaign)
    assert "# Campaign summary" in text
    assert "## synthetic tiny" in text
    assert "## Failed shards" in text
    assert "RuntimeError" in text


def test_run_all_names_cover_registry():
    campaign_default = expand_campaign(sorted(REGISTRY), seeds=1)
    assert {s.experiment for s in campaign_default} == set(REGISTRY)
    # Every seed-accepting experiment would fan out under seeds>1.
    fanned = expand_campaign(sorted(REGISTRY), seeds=2)
    fan_counts = {}
    for shard in fanned:
        fan_counts[shard.experiment] = fan_counts.get(shard.experiment, 0) + 1
    for name in ACCEPTS_SEED:
        grid = len(PARAM_GRIDS.get(name, [{}]))
        assert fan_counts[name] == 2 * grid


# ---------------------------------------------------------------------------
# Retry backoff and partial aggregation (campaign hardening)


def test_retry_backoff_deterministic_and_shaped():
    from repro.experiments.campaign import (
        RETRY_BACKOFF_BASE,
        RETRY_BACKOFF_CAP,
        retry_backoff,
    )

    shard = Shard("x", "m:f", (), 0, 1)
    first = retry_backoff(shard, 1)
    assert first == retry_backoff(shard, 1)  # derived jitter, no live RNG
    assert 0.75 * RETRY_BACKOFF_BASE <= first <= 1.25 * RETRY_BACKOFF_BASE
    second = retry_backoff(shard, 2)
    assert 0.75 * 2 * RETRY_BACKOFF_BASE <= second <= 1.25 * 2 * RETRY_BACKOFF_BASE
    assert retry_backoff(shard, 50) <= 1.25 * RETRY_BACKOFF_CAP
    # Jitter depends on the shard identity and the attempt number.
    other = Shard("y", "m:f", (), 0, 1)
    assert len({first, second, retry_backoff(other, 1)}) == 3
    with pytest.raises(ValueError):
        retry_backoff(shard, 0)


def test_timeout_shard_yields_truncated_partial_aggregate():
    grids = {
        "probe": [{"duration": 30.0, "tag": 0}, {"duration": 0.01, "tag": 1}]
    }
    targets = {"probe": "repro.experiments.campaign:run_sleep_probe"}
    campaign = run_campaign(
        ["probe"], jobs=2, cache=False, timeout=1.0,
        grids=grids, targets=targets,
    )
    assert campaign.stats["failed"] == 1
    summary = campaign.summaries["probe"]
    info = summary.data["campaign"]
    assert info["truncated"] is True
    assert {s["status"] for s in info["shards"]} == {"ok", "timeout"}
    assert any("TRUNCATED" in note for note in summary.notes)
    # The surviving shard's row is aggregated, not discarded.
    assert [row[0] for row in summary.rows] == [1]


def test_healthy_campaign_not_flagged_truncated():
    campaign = run_campaign(
        ["tiny"], seeds=2, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    info = campaign.summaries["tiny"].data["campaign"]
    assert info["truncated"] is False
    assert campaign.stats["retried"] == 0


def test_all_failed_summary_flagged_truncated():
    campaign = run_campaign(
        ["boom"], seeds=1, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    info = campaign.summaries["boom"].data["campaign"]
    assert info["truncated"] is True
    assert info["shards"][0]["status"] == "failed"


def test_crashed_shard_retry_is_backoff_gated():
    from repro.experiments.campaign import retry_backoff

    campaign = run_campaign(
        ["crash", "tiny"], seeds=1, jobs=2, cache=False, retries=1,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    crash = next(o for o in campaign.outcomes if o.shard.experiment == "crash")
    assert crash.status == "failed"
    assert crash.attempts == 2
    assert campaign.stats["retried"] == 1
    # The wall clock shows at least the first attempt's backoff window.
    assert campaign.wall_s >= retry_backoff(crash.shard, 1) * 0.5
