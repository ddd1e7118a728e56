"""Lane RNG stream identity with the serial ``RandomScheduler``.

The engine decodes ``RandomScheduler.choose``'s rejection-sampling loop
from block-drawn scheduler words over its own runnable tuple.  These
tests pin the properties that make that sound: (1) the CPython
``getrandbits`` layout the block decode rests on; (2) the decoded grants
and the word cursor equal the serial draws grant for grant, at every
stop position; (3) the granted-pid sequence of a lane equals what a
traced serial run records, at any chunk and block size; (4) scheduler
streams are strictly per-lane, so lanes retiring mid-batch cannot shift
a surviving lane's draws.
"""

import functools
import random

import pytest

from repro.batch import LaneSpec, engine, run_lanes
from repro.batch.engine import (
    DEFAULT_CHUNK,
    _draw_block,
    _grant_decoder,
    _words_spanned,
)
from repro.consensus import AdsConsensus
from repro.runtime import RandomScheduler, TracingScheduler

#: Every non-empty runnable tuple of up to eight pids, plus two wide ones
#: (k = 8 bits per draw: half and almost none of the draws rejected).
RUNNABLE_SETS = [
    *(tuple(pid for pid in range(8) if mask >> pid & 1) for mask in range(1, 256)),
    tuple(range(128)),
    tuple(range(255)),
]


@functools.lru_cache(maxsize=None)
def traced_schedule(inputs, seed):
    tracer = TracingScheduler(RandomScheduler(seed=seed), history=10**7)
    AdsConsensus().run(list(inputs), scheduler=tracer, seed=seed)
    return list(tracer.recent)


@pytest.mark.parametrize("words", [1, 2, 3, 1024])
def test_wide_getrandbits_lists_words_in_draw_order(words):
    # The block decode rests on CPython's layout: one wide draw consumes
    # one Mersenne Twister output per 32-bit word, least significant word
    # first, and a k <= 32 bit draw keeps the top k bits of one output.
    wide = random.Random(words).getrandbits(32 * words).to_bytes(4 * words, "little")
    one = random.Random(words)
    assert wide == b"".join(
        one.getrandbits(32).to_bytes(4, "little") for _ in range(words)
    )
    for k in range(1, 9):
        top = random.Random(k).getrandbits(32) >> (32 - k)
        assert random.Random(k).getrandbits(k) == top


def test_block_decode_matches_serial_choose_at_every_stop():
    for seed, runnable in enumerate(RUNNABLE_SETS):
        table, reject = _grant_decoder(runnable)
        scheduler = RandomScheduler(seed=seed)
        serial_draw = scheduler._getrandbits
        drawn = 0

        def counted(k):
            nonlocal drawn
            drawn += 1
            return serial_draw(k)

        scheduler._getrandbits = counted
        words = _draw_block(RandomScheduler(seed=seed)._getrandbits)
        assert len(words) == engine.BLOCK_WORDS
        grants = words.translate(table, reject)
        assert _words_spanned(words, reject, 0) == 0
        for used, pid in enumerate(grants, 1):
            assert pid == scheduler.choose(None, runnable), (runnable, used)
            # A stop after this grant resumes at the serial loop's next draw.
            assert _words_spanned(words, reject, used) == drawn, (runnable, used)
        # The serial loop rejects every word the decode left over.
        nrun = len(runnable)
        for _ in range(len(words) - drawn):
            assert serial_draw(nrun.bit_length()) >= nrun, runnable


def assert_lane_schedules_match_serial(seed):
    for n in (2, 3, 5, 8):
        inputs = tuple((seed + i) % 2 for i in range(n))
        expected = traced_schedule(inputs, seed)
        for chunk in (1, 7, DEFAULT_CHUNK):
            (lane,) = run_lanes(
                [LaneSpec(inputs=inputs, seed=seed)],
                chunk=chunk,
                record_schedule=True,
            )
            assert lane.fallback is None, (n, chunk)
            assert lane.schedule == expected, (n, chunk)


@pytest.mark.parametrize("seed", range(8))
def test_lane_schedule_equals_serial_draw_sequence(seed):
    assert_lane_schedules_match_serial(seed)


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", range(8))
def test_lane_schedule_equals_serial_draw_sequence_in_small_blocks(
    seed, block, monkeypatch
):
    # Blocks of a few words put every stop (decision, chunk end) next to
    # a block edge, where a cursor off by one word or trailing rejects
    # skipped after a decision would shift the rest of the schedule.
    monkeypatch.setattr(engine, "BLOCK_WORDS", block)
    assert_lane_schedules_match_serial(seed)


def test_retirement_order_cannot_perturb_surviving_lanes():
    # The same lane, alone vs sandwiched between lanes that retire much
    # earlier/later, must be granted the identical pid sequence: lane RNG
    # streams never observe the rest of the batch.
    spec = LaneSpec(inputs=(1, 0, 1, 0), seed=42)
    (alone,) = run_lanes([spec], record_schedule=True)
    neighbours = [
        LaneSpec(inputs=(s % 2, (s + 1) % 2), seed=s) for s in range(6)
    ]
    batch = run_lanes(
        neighbours[:3] + [spec] + neighbours[3:], record_schedule=True
    )
    sandwiched = batch[3]
    assert sandwiched.fallback is None
    assert sandwiched.schedule == alone.schedule
    assert sandwiched.decisions == alone.decisions
    assert sandwiched.total_steps == alone.total_steps


def test_schedule_not_recorded_by_default():
    (lane,) = run_lanes([LaneSpec(inputs=(0, 1), seed=0)])
    assert lane.schedule is None
