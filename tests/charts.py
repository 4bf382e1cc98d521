"""Chart generators only the tests use: placement fuzz scores and fixed-ratio charts."""

import random
from fractions import Fraction

from keysoundgen.bms import BpmEvent, Chart, Lane, SampleRef, TimedObject, make_chart
from keysoundgen.corpus import SIXTEENTHS
from keysoundgen.errors import DataError
from keysoundgen.timing import TimeGrid

# instruments playable in every corpus song, whichever section it choreographs
ALWAYS_PLAYABLE = ("kick", "snare")


def random_score(rng: random.Random, max_group: int = 8):
    """A background-only chart plus selection flags (≤ max_group per instant).

    This is the placement fuzz input: flags say which objects the
    selector would have marked playable.
    """
    sample_count = rng.randint(2, 10)
    ids = rng.sample(range(1, 1296), sample_count)
    table = {sid: f"s{sid:04d}.wav" for sid in ids}

    objects = []
    for measure in range(rng.randint(2, 6)):
        for i in range(16):
            for sid in rng.sample(ids, rng.randint(0, min(4, len(ids)))):
                objects.append(TimedObject(measure, SIXTEENTHS[i], SampleRef(sid), Lane.BG))
    if not objects:
        sid = ids[0]
        objects.append(TimedObject(0, Fraction(0), SampleRef(sid), Lane.BG))

    chart = make_chart(objects, table, [BpmEvent(0, Fraction(0), 150.0)])

    flags = [False] * len(chart.objects)
    for group in TimeGrid(chart).instant_groups(range(len(chart.objects))):
        for i in rng.sample(group, rng.randint(0, min(max_group, len(group)))):
            flags[i] = True
    return chart, flags


def ratio_chart(total: int = 200, playable_ratio: float = 0.3) -> Chart:
    """A chart whose playable share is exactly playable_ratio.

    total * playable_ratio must come out integral (e.g. multiples of 10
    for 0.3), so metric anchors hold exactly.
    """
    playable_count = total * Fraction(playable_ratio).limit_denominator(1000)
    if total <= 0 or playable_count.denominator != 1:
        raise DataError(
            f"cannot make exactly {playable_ratio:.0%} of {total} objects playable"
        )
    period = total // int(playable_count) if playable_count else total

    table = {1: "kick00.wav", 2: "pad00.wav"}
    objects = []
    keys = [Lane.K1, Lane.K2, Lane.K3, Lane.K4, Lane.K5, Lane.K6, Lane.K7]
    placed = 0
    for i in range(total):
        measure, slot = divmod(i, 16)
        playable = i % period == 0 and placed < int(playable_count)
        if playable:
            lane = keys[placed % len(keys)]
            placed += 1
            sid = 1
        else:
            lane = Lane.BG
            sid = 2
        objects.append(
            TimedObject(measure, SIXTEENTHS[slot], SampleRef(sid), lane)
        )
    if placed != int(playable_count):
        raise DataError(f"ratio chart construction placed {placed} playables")
    return make_chart(objects, table, [BpmEvent(0, Fraction(0), 150.0)])
