"""The heap-backed lane queue dispatches exactly as a ``min`` scan would.

The reference model is the historical queue: an arrival-ordered list,
``min(pending, key=policy_key)`` to pick, and removal of the picked
job.  ``min`` returns the *first* minimal element, so among equal keys
the job queued first wins; the heap must agree pick for pick — by
identity, not equality — across policy switches that force a rebuild
and hook overrides that take a job from the middle of the queue.
"""

from dataclasses import astuple
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet.controlplane import (
    POLICIES,
    ControlHooks,
    _FleetJob,
    _LaneQueue,
    _policy_key,
)
from repro.learn import ACTIONS, AdaptiveHooks
from repro.sim import Environment


def _job(job_id, arrival_s, read_bytes, deadline_at, priority):
    # Every field is drawn from a handful of values, so equal keys --
    # and even jobs with equal fields -- are common.
    return _FleetJob(job_id, arrival_s, read_bytes, "batch", "ds-000",
                     read_bytes, deadline_at, priority)


def _queue(hooks, policy):
    hooks.bind(SimpleNamespace(scenario=SimpleNamespace(policy=policy,
                                                        cache=None)))
    lane = SimpleNamespace(name="t0:r1")
    lane.queue = _LaneQueue(Environment(), lane, hooks)
    return lane.queue


def _pick(queue):
    """One non-blocking ``get``: the queue is non-empty, so no yield."""
    getter = queue.get()
    with pytest.raises(StopIteration) as stop:
        next(getter)
    return stop.value.value


def _remove(reference, fjob):
    for index, queued in enumerate(reference):
        if queued is fjob:
            del reference[index]
            return
    raise AssertionError("picked a job that was not queued")


class _NewestOnAlternatePicks(ControlHooks):
    """Takes the most recently queued job on every other pick."""

    def __init__(self):
        self.picks = 0

    def pick_dispatch(self, lane, pending):
        self.picks += 1
        if self.picks % 2:
            return list(pending)[-1]
        return super().pick_dispatch(lane, pending)


jobs = st.builds(
    _job,
    job_id=st.integers(0, 3),
    arrival_s=st.sampled_from([0.0, 1.0, 2.0]),
    read_bytes=st.sampled_from([1.0, 5.0]),
    deadline_at=st.sampled_from([10.0, 20.0]),
    priority=st.integers(0, 1),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), jobs),
        st.tuples(st.just("pick"), st.none()),
        st.tuples(st.just("switch"), st.sampled_from(POLICIES)),
    ),
    max_size=60,
)

#: Equal keys under every policy: the job queued first must win.
_TIES = [("push", _job(1, 0.0, 1.0, 10.0, 0)),
         ("push", _job(1, 0.0, 1.0, 10.0, 0)),
         ("push", _job(1, 0.0, 1.0, 10.0, 0)),
         ("pick", None), ("pick", None), ("pick", None)]
#: A switch with jobs queued forces a rebuild under the new order: the
#: second and third picks differ from what the old order would take.
_SWITCH = [("push", _job(1, 0.0, 5.0, 20.0, 1)),
           ("push", _job(2, 1.0, 5.0, 20.0, 1)),
           ("push", _job(3, 2.0, 1.0, 10.0, 0)),
           ("pick", None), ("switch", "sjf"), ("pick", None),
           ("push", _job(4, 3.0, 5.0, 10.0, 0)),
           ("switch", "edf"), ("pick", None), ("pick", None)]


def _replay(queue, key_of, ops, switch=None):
    """Drive ``queue`` and the ``min``-scan reference through ``ops``."""
    reference = []
    for op, arg in ops:
        if op == "push":
            queue.push(arg)
            reference.append(arg)
        elif op == "switch":
            if switch is not None:
                switch(arg)
        elif reference:
            expected = key_of(reference)
            assert _pick(queue) is expected
            _remove(reference, expected)
        assert queue.depth == len(reference)
        assert all(a is b for a, b in zip(queue.pending.values(), reference))


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=100)
@given(ops=ops)
@example(ops=_TIES)
def test_heap_matches_min_scan(policy, ops):
    key = _policy_key(policy)
    _replay(_queue(ControlHooks(), policy), lambda ref: min(ref, key=key), ops)


@settings(max_examples=200)
@given(ops=ops)
@example(ops=_SWITCH)
def test_adaptive_switch_rebuilds_in_the_new_order(ops):
    hooks = AdaptiveHooks()
    queue = _queue(hooks, "fcfs")
    current = {"policy": hooks.action.dispatch}

    def switch(policy):
        hooks.set_action(next(a for a in ACTIONS if a.dispatch == policy))
        current["policy"] = policy

    def key_of(reference):
        return min(reference, key=_policy_key(current["policy"]))

    _replay(queue, key_of, ops, switch)


@pytest.mark.parametrize("policy", POLICIES)
@given(ops=ops)
@example(ops=_TIES)
def test_override_taking_a_non_head_job_removes_it_by_identity(policy, ops):
    hooks = _NewestOnAlternatePicks()
    key = _policy_key(policy)
    picks = {"n": 0}

    def key_of(reference):
        picks["n"] += 1
        return reference[-1] if picks["n"] % 2 else min(reference, key=key)

    _replay(_queue(hooks, policy), key_of, ops)


def test_equal_jobs_are_removed_by_identity():
    first = _job(1, 0.0, 1.0, 10.0, 0)
    twin = _job(1, 0.0, 1.0, 10.0, 0)
    # Jobs compare by identity; field for field these two are equal.
    assert astuple(first) == astuple(twin) and first is not twin
    queue = _queue(_NewestOnAlternatePicks(), "fcfs")
    queue.push(first)
    queue.push(twin)
    # The override takes the newest, an equal job: equality-based
    # removal would have dropped ``first`` instead.
    assert _pick(queue) is twin
    assert list(queue.pending.values()) == [first]
    assert next(iter(queue.pending.values())) is first


def test_key_is_rebuilt_only_when_the_hook_returns_a_new_object():
    hooks = AdaptiveHooks()
    queue = _queue(hooks, "fcfs")
    for job_id in range(3):
        queue.push(_job(job_id, float(job_id), 1.0, 10.0, 0))
    _pick(queue)
    heap = queue._heap
    same_order = next(a for a in ACTIONS
                      if a.dispatch == hooks.action.dispatch and a != hooks.action)
    hooks.set_action(same_order)
    _pick(queue)
    assert queue._heap is heap


def test_a_pick_of_an_unqueued_job_is_rejected():
    class Stranger(ControlHooks):
        def pick_dispatch(self, lane, pending):
            return _job(9, 0.0, 1.0, 10.0, 0)

    queue = _queue(Stranger(), "fcfs")
    queue.push(_job(1, 0.0, 1.0, 10.0, 0))
    with pytest.raises(ConfigurationError):
        _pick(queue)
