"""Assignment of playable objects to the 8 controls.

Objects that sound at the same instant must land on different controls.
Within a simultaneous group, objects are taken in sample-id order and
each goes to the free control with the lowest decayed individual strain
(ties break toward the lowest control index), so busy hands get a rest.
The turntable only enters the candidate set when a group needs all 8
controls, or for samples classified as scratches.
"""

from __future__ import annotations

from .bms import Chart, Lane, with_lanes
from .difficulty import DEFAULT_STRAIN, ControlStrain, StrainConfig
from .errors import PlacementOverflowError
from .timing import TimeGrid

KEY_LANES = (Lane.K1, Lane.K2, Lane.K3, Lane.K4, Lane.K5, Lane.K6, Lane.K7)
CONTROL_LANES = KEY_LANES + (Lane.TT,)
# Placement runs on control indices into CONTROL_LANES, whose order is the
# lane order ties break by.
TURNTABLE = CONTROL_LANES.index(Lane.TT)


def assign_controls(
    chart: Chart,
    grid: TimeGrid,
    playable_flags,
    scratch_samples=frozenset(),
    config: StrainConfig = DEFAULT_STRAIN,
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

    objects = chart.objects
    lanes: list[Lane] = [Lane.BG] * len(objects)
    strain = ControlStrain(config.decay_individual, config.base_individual)

    for group in grid.instant_groups([i for i, flagged in enumerate(flags) if flagged]):
        if len(group) > len(CONTROL_LANES):
            first = objects[group[0]]
            raise PlacementOverflowError(
                f"{len(group)} simultaneous playable objects at measure {first.measure} "
                f"position {first.position}, but only {len(CONTROL_LANES)} controls exist; "
                f"lower the difficulty curve or re-run selection with fewer playables"
            )
        t = grid.object_seconds[group[0]]
        # a control's strain only changes when it is pressed, and a pressed
        # control stays taken for the rest of the instant
        residual = [strain.at(c, t) for c in range(len(CONTROL_LANES))]
        free_keys = list(range(TURNTABLE))
        turntable_free = True
        allow_turntable = len(group) == len(CONTROL_LANES)
        # a stable sort: equal sample ids keep their chart order
        for i in sorted(group, key=lambda j: objects[j].sample.id):
            is_scratch = objects[i].sample.id in scratch_samples
            if is_scratch and turntable_free:
                control = TURNTABLE
            elif (allow_turntable or is_scratch) and turntable_free:
                control = min(free_keys + [TURNTABLE], key=residual.__getitem__)
            else:
                control = min(free_keys, key=residual.__getitem__)
            if control == TURNTABLE:
                turntable_free = False
            else:
                free_keys.remove(control)
            strain.press(control, t)
            lanes[i] = CONTROL_LANES[control]
    return lanes


def apply_selection(
    chart: Chart,
    playable_flags,
    scratch_samples=frozenset(),
    config: StrainConfig = DEFAULT_STRAIN,
) -> Chart:
    """Rebuild a chart so flagged objects sit on controls and the rest on BG."""
    grid = TimeGrid(chart)
    lanes = assign_controls(chart, grid, playable_flags, scratch_samples, config)
    return with_lanes(chart, lanes)
