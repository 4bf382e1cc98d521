"""Assignment of playable objects to the 8 controls.

Objects that sound at the same instant must land on different controls.
Within a simultaneous group, objects are taken in sample-id order and
each goes to the free control with the lowest decayed individual strain
(ties break toward the lowest control index), so busy hands get a rest.
The turntable only enters the candidate set when a group needs all 8
controls, or for samples classified as scratches.
"""

from __future__ import annotations

from .bms import Chart, Lane, instant_groups, with_lanes
from .difficulty import DEFAULT_STRAIN, ControlStrain, StrainConfig
from .errors import PlacementOverflowError
from .timing import TimeGrid

KEY_LANES = (Lane.K1, Lane.K2, Lane.K3, Lane.K4, Lane.K5, Lane.K6, Lane.K7)
CONTROL_LANES = KEY_LANES + (Lane.TT,)


def assign_controls(
    chart: Chart,
    grid: TimeGrid,
    playable_flags,
    scratch_samples=frozenset(),
    config: StrainConfig = DEFAULT_STRAIN,
    scratch_to_turntable: bool = True,
) -> list[Lane]:
    """Pick a lane for every object: a control where flagged, BG elsewhere.

    scratch_samples is a set of sample ids whose objects prefer the
    turntable (classifier- or filename-derived).  Raises
    PlacementOverflowError when more than 8 flagged objects share one
    instant.
    """
    flags = list(playable_flags)
    if len(flags) != len(chart.objects):
        raise ValueError(
            f"{len(flags)} flags for {len(chart.objects)} objects"
        )

    lanes: list[Lane] = [Lane.BG] * len(chart.objects)
    strain = ControlStrain(config)

    for group in instant_groups(chart, [i for i, flagged in enumerate(flags) if flagged]):
        first = chart.objects[group[0]]
        if len(group) > len(CONTROL_LANES):
            raise PlacementOverflowError(
                f"{len(group)} simultaneous playable objects at measure {first.measure} "
                f"position {first.position}, but only {len(CONTROL_LANES)} controls exist; "
                f"lower the difficulty curve or re-run selection with fewer playables"
            )
        t = grid.object_seconds[group[0]]
        taken: set[Lane] = set()
        allow_turntable = len(group) == len(CONTROL_LANES)
        for i in sorted(group, key=lambda j: (chart.objects[j].sample.id, j)):
            is_scratch = (
                scratch_to_turntable and chart.objects[i].sample.id in scratch_samples
            )
            if is_scratch and Lane.TT not in taken:
                lane = Lane.TT
            else:
                candidates = [l for l in KEY_LANES if l not in taken]
                if (allow_turntable or is_scratch) and Lane.TT not in taken:
                    candidates.append(Lane.TT)
                lane = min(candidates, key=lambda l: (strain.at(l, t), l.order))
            taken.add(lane)
            strain.press(lane, t)
            lanes[i] = lane
    return lanes


def apply_selection(
    chart: Chart,
    playable_flags,
    scratch_samples=frozenset(),
    config: StrainConfig = DEFAULT_STRAIN,
    scratch_to_turntable: bool = True,
) -> Chart:
    """Rebuild a chart so flagged objects sit on controls and the rest on BG."""
    grid = TimeGrid(chart)
    lanes = assign_controls(
        chart, grid, playable_flags, scratch_samples, config, scratch_to_turntable
    )
    return with_lanes(chart, lanes)
