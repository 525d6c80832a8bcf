"""Unit tests for the supervised execution runtime (``repro.exec``).

Pooled tests here spawn real process pools, so each one keeps its
payload list tiny; the deterministic fault plans (armed through the
``REPRO_FAULTS`` environment, which forked workers inherit) make worker
crashes, hangs and raises exactly reproducible.
"""

import json
import subprocess

import pytest

from repro.exec import (
    FAULTS_ENV,
    OUTCOME_FAILED,
    OUTCOME_OK,
    ExecutionFailed,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    ItemOutcome,
    RunJournal,
    RunPolicy,
    armed_plan,
    corrupt_cache_entry,
    fire,
    raise_on_failure,
    resolve_jobs,
    run_sharded,
    run_supervised,
)
from repro.io.cache import ResultCache


def _double(payload):
    return payload * 2


def _boom(payload):
    raise ValueError(f"boom {payload}")


def _tag_shard(payloads):
    """Shard function: each value records the shard it was priced in."""
    return [(p * 2, tuple(payloads)) for p in payloads]


def _double_all_but_7(payloads):
    """Shard function with a genuine (not injected) failure on payload 7."""
    if 7 in payloads:
        raise ValueError("cannot price payload 7")
    return [p * 2 for p in payloads]


def _arm(monkeypatch, *faults):
    plan = {"schema": "repro.faults/1", "faults": [dict(f) for f in faults]}
    monkeypatch.setenv(FAULTS_ENV, json.dumps(plan))


class TestRunPolicy:
    def test_defaults_round_trip(self):
        policy = RunPolicy()
        assert RunPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="run policy"):
            RunPolicy.from_dict({"max_retries": 1, "retries": 2})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"max_retries": True},
            {"timeout": 0},
            {"timeout": -2.0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"seed": -3},
            {"pool_restarts": -1},
            {"degrade_serial": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunPolicy(**kwargs)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RunPolicy(backoff_base=1.0, backoff_factor=2.0, backoff_max=3.0, seed=7)
        first = policy.backoff_delay(4, 1)
        assert first == policy.backoff_delay(4, 1)
        assert 0.5 <= first < 1.5  # base x jitter in [0.5, 1.5)
        assert policy.backoff_delay(4, 10) == 3.0  # capped
        assert policy.backoff_delay(4, 1) != policy.backoff_delay(5, 1)

    def test_backoff_disabled_cases(self):
        assert RunPolicy().backoff_delay(0, 5) == 0.0  # base defaults to 0
        assert RunPolicy(backoff_base=1.0).backoff_delay(0, 0) == 0.0  # first run


class TestSerialExecution:
    def test_values_in_submission_order(self):
        outcomes = run_supervised(_double, [3, 1, 2], jobs=1)
        assert [o.value for o in outcomes] == [6, 2, 4]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_retry_recovers_a_transient_fault(self, monkeypatch):
        _arm(monkeypatch, {"op": "raise", "index": 1, "attempt": 0})
        outcomes = run_supervised(_double, [3, 1, 2], jobs=1)
        assert [o.value for o in outcomes] == [6, 2, 4]
        assert [o.attempts for o in outcomes] == [1, 2, 1]

    def test_exhausted_retries_keep_the_original_exception(self):
        outcomes = run_supervised(_boom, [9], jobs=1, policy=RunPolicy(max_retries=1))
        (outcome,) = outcomes
        assert outcome.status == OUTCOME_FAILED
        assert outcome.attempts == 2
        assert "boom 9" in outcome.error
        with pytest.raises(ValueError, match="boom 9"):
            raise_on_failure(outcomes)

    def test_on_result_sees_every_item_once(self):
        seen = {}
        run_supervised(
            _double, [5, 6], jobs=1, on_result=lambda i, o: seen.setdefault(i, o)
        )
        assert sorted(seen) == [0, 1]
        assert all(seen[i].ok for i in seen)

    def test_raise_on_failure_without_exception_object(self):
        outcome = ItemOutcome(index=0, status="timeout", attempts=3, error="timed out")
        with pytest.raises(ExecutionFailed, match="timed out"):
            raise_on_failure([outcome])


class TestPooledExecution:
    def test_pool_matches_serial(self):
        serial = run_supervised(_double, list(range(6)), jobs=1)
        pooled = run_supervised(_double, list(range(6)), jobs=2)
        assert pooled == serial

    def test_worker_crash_respawns_and_retries(self, monkeypatch):
        _arm(monkeypatch, {"op": "crash", "index": 0, "attempt": 0})
        outcomes = run_supervised(_double, [3, 1, 2, 4], jobs=2)
        assert [o.value for o in outcomes] == [6, 2, 4, 8]
        assert outcomes[0].attempts >= 2  # the crashed attempt was charged

    def test_hung_item_times_out_and_retries(self, monkeypatch):
        _arm(monkeypatch, {"op": "hang", "index": 0, "attempt": 0, "seconds": 30.0})
        outcomes = run_supervised(
            _double, [3, 1], jobs=2, policy=RunPolicy(timeout=0.5)
        )
        assert [o.value for o in outcomes] == [6, 2]
        assert outcomes[0].attempts >= 2

    def test_exhausted_restarts_degrade_to_serial(self, monkeypatch):
        _arm(monkeypatch, {"op": "crash", "index": 0, "attempt": 0})
        outcomes = run_supervised(
            _double, [3, 1], jobs=2, policy=RunPolicy(pool_restarts=0)
        )
        assert [o.value for o in outcomes] == [6, 2]

    def test_exhausted_restarts_without_degrade_fail_the_items(self, monkeypatch):
        # Both items crash on every attempt, so the run can never finish:
        # the pool breaks, restarts are exhausted, and with degradation
        # off both items must resolve to failed outcomes.
        _arm(
            monkeypatch,
            *[{"op": "crash", "index": i, "attempt": a} for i in (0, 1) for a in range(4)],
        )
        outcomes = run_supervised(
            _double, [3, 1], jobs=2,
            policy=RunPolicy(pool_restarts=0, degrade_serial=False),
        )
        assert [o.status for o in outcomes] == [OUTCOME_FAILED, OUTCOME_FAILED]
        assert all("pool" in o.error for o in outcomes)

    def test_single_payload_runs_serially(self, monkeypatch):
        # The pool never exceeds the payload count, so a crash fault on a
        # one-item run raises (serial semantics) and is retried in-process.
        _arm(monkeypatch, {"op": "crash", "index": 0, "attempt": 0})
        (outcome,) = run_supervised(_double, [3], jobs=2)
        assert outcome.ok and outcome.value == 6 and outcome.attempts == 2

    def test_resolve_jobs_reexport(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3


class TestShardedExecution:
    def test_serial_is_one_shard_and_jobs_2_two_contiguous_shards(self):
        serial = run_sharded(_tag_shard, [0, 1, 2, 3, 4], jobs=1)
        assert [o.value for o in serial] == [(2 * p, (0, 1, 2, 3, 4)) for p in range(5)]
        pooled = run_sharded(_tag_shard, [0, 1, 2, 3, 4], jobs=2)
        assert [o.value[0] for o in pooled] == [0, 2, 4, 6, 8]
        assert [o.value[1] for o in pooled] == [(0, 1)] * 2 + [(2, 3, 4)] * 3
        assert all(o.ok and o.attempts == 1 for o in serial + pooled)

    def test_no_payloads_no_shards(self):
        assert run_sharded(_tag_shard, [], jobs=2) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_genuine_failure_fails_only_its_payload(self, jobs):
        outcomes = run_sharded(
            _double_all_but_7, [5, 6, 7, 8], jobs=jobs, policy=RunPolicy(max_retries=1)
        )
        failed = outcomes[2]
        assert failed.status == OUTCOME_FAILED
        assert failed.attempts == 2  # max_retries + 1; the split was free
        assert "cannot price payload 7" in failed.error
        assert [(o.index, o.value, o.attempts) for o in outcomes if o.ok] == [
            (0, 10, 1), (1, 12, 1), (3, 16, 1)
        ]
        with pytest.raises(ValueError, match="payload 7"):
            raise_on_failure(outcomes)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_faults_match_per_payload_inside_a_shard(self, monkeypatch, jobs):
        _arm(monkeypatch, {"op": "raise", "index": 2, "attempt": 0})
        outcomes = run_sharded(_tag_shard, [0, 1, 2, 3], jobs=jobs)
        assert [o.value[0] for o in outcomes] == [0, 2, 4, 6]
        # Only payload 2 is charged: its shard split uncharged, then its
        # singleton failed attempt 0 and succeeded at attempt 1.
        assert [o.attempts for o in outcomes] == [1, 1, 2, 1]

    def test_on_result_fires_once_per_payload(self, monkeypatch):
        _arm(monkeypatch, {"op": "raise", "index": 1, "attempt": 0})
        seen = []
        outcomes = run_sharded(
            _double_all_but_7,
            [5, 6, 7, 8],
            policy=RunPolicy(max_retries=0),
            on_result=lambda i, o: seen.append((i, o.status)),
        )
        assert sorted(seen) == [(0, "ok"), (1, "failed"), (2, "failed"), (3, "ok")]
        assert [o.ok for o in outcomes] == [True, False, False, True]

    def test_timeout_budget_scales_with_shard_size(self, monkeypatch):
        # Shard [0, 1] runs 1.2 s: over one payload's 1 s budget, inside
        # the shard's 2 s budget, so nothing times out.
        _arm(
            monkeypatch,
            {"op": "hang", "index": 0, "attempt": 0, "seconds": 0.6},
            {"op": "hang", "index": 1, "attempt": 0, "seconds": 0.6},
        )
        outcomes = run_sharded(_tag_shard, [0, 1, 2, 3], jobs=2, policy=RunPolicy(timeout=1.0))
        assert [o.attempts for o in outcomes] == [1, 1, 1, 1]

    def test_hung_shard_charges_each_payload_a_timeout(self, monkeypatch):
        _arm(monkeypatch, {"op": "hang", "index": 0, "attempt": 0, "seconds": 30.0})
        outcomes = run_sharded(_tag_shard, [0, 1, 2, 3], jobs=2, policy=RunPolicy(timeout=1.0))
        assert [o.value[0] for o in outcomes] == [0, 2, 4, 6]
        assert [o.attempts for o in outcomes] == [2, 2, 1, 1]


class TestFaultPlans:
    def test_unarmed_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert armed_plan() is None
        fire(0, 0)  # must not raise

    def test_inline_and_file_sources_agree(self, tmp_path):
        payload = {
            "schema": "repro.faults/1",
            "faults": [{"op": "raise", "index": 2, "attempt": 1}],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        assert FaultPlan.load(json.dumps(payload)) == FaultPlan.load(str(path))

    def test_match_is_exact_and_fire_raises(self, monkeypatch):
        plan = FaultPlan.from_dict(
            {"schema": "repro.faults/1", "faults": [{"op": "raise", "index": 1}]}
        )
        assert plan.match(1, 0) is not None
        assert plan.match(1, 1) is None
        assert plan.match(0, 0) is None
        _arm(monkeypatch, {"op": "raise", "index": 1, "attempt": 0})
        fire(0, 0)  # unmatched (index differs): no-op
        fire(1, 1)  # unmatched (attempt differs): no-op
        with pytest.raises(FaultInjected):
            fire(1, 0)

    def test_corrupt_cache_fault_is_not_an_execution_fault(self):
        plan = FaultPlan.from_dict(
            {
                "schema": "repro.faults/1",
                "faults": [{"op": "corrupt-cache", "index": 0}],
            }
        )
        assert plan.match(0, 0) is None  # never fires during execution
        assert plan.corrupts_cache(0)
        assert not plan.corrupts_cache(1)

    def test_bad_specs_are_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(op="explode", index=0)
        with pytest.raises(ValueError):
            FaultSpec.from_dict({"op": "raise", "index": 0, "bogus": 1})
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"schema": "other/1", "faults": []})

    def test_corrupt_cache_entry_poisons_the_stored_json(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        store.put(key, {"x": 1})
        assert store.get(key) == {"x": 1}
        corrupt_cache_entry(store, key)
        assert store.get(key) is None  # corrupt entry reads as a miss


class TestRunJournal:
    def test_record_and_replay(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        assert not journal.exists()
        assert journal.completed_keys() == set()
        journal.record("k1", cell="a")
        journal.record("k2")
        journal.record("k1")  # duplicate: must not append a second line
        assert journal.completed_keys() == {"k1", "k2"}
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert len(lines) == 2
        fresh = RunJournal(tmp_path / "run.jsonl")
        assert fresh.completed_keys() == {"k1", "k2"}

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("k1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "other/1", "key": "k2"}\n')
            handle.write('{"schema": "repro.run-journal/1", "key"')  # torn write
        assert RunJournal(path).completed_keys() == {"k1"}

    def test_for_cache_lives_beside_the_entries(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        journal = RunJournal.for_cache(store, "deadbeef")
        assert journal.path == tmp_path / "cache" / "journal" / "deadbeef.jsonl"


class TestCacheDurability:
    def test_put_survives_reload(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        key = "cd" + "1" * 62
        store.put(key, {"rows": [1, 2]})
        assert ResultCache(tmp_path / "cache").get(key) == {"rows": [1, 2]}

    def test_open_sweeps_tmp_files_of_dead_writers(self, tmp_path):
        root = tmp_path / "cache"
        shard = root / "ab"
        shard.mkdir(parents=True)
        proc = subprocess.Popen(["true"])
        proc.wait()
        dead = shard / f".abc.json.{proc.pid}.tmp"
        dead.write_text("torn")
        alive = shard / f".def.json.{__import__('os').getpid()}.tmp"
        alive.write_text("in-flight")
        unrelated = shard / "notatmp.json"
        unrelated.write_text("{}")
        ResultCache(root)
        assert not dead.exists()  # dead writer's leftover swept
        assert alive.exists()  # live writer untouched
        assert unrelated.exists()
