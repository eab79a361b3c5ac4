"""Independent reference optimizers for the switching tests.

Deliberately shares no code with the package: plain Python that prices
every state it visits from scratch with the affine power formula.
``naive_optimize`` enumerates every on/off vector and every offload-target
assignment. Its tie-break mirrors the documented contract: candidates are
visited in ascending lexicographic order (on/off vector, then
MBS-before-HAPS targets) and only strict improvements replace the
incumbent. ``naive_greedy`` replays the greedy switch-off scan.
"""

import itertools


def naive_optimize(
    loads,
    base_mbs,
    base_haps,
    haps,  # (operational, slope, transmit, sleep)
    mbs,
    sbs_params,  # list of (operational, slope, transmit, sleep)
    scale_mbs,
    scale_haps,
):
    """Return (on_off bits tuple, target letters tuple, power) or None."""
    s = len(loads)
    best = None
    for on_off in itertools.product((0, 1), repeat=s):
        off_ids = [j for j in range(s) if not on_off[j]]
        sbs_power = 0.0
        for j in range(s):
            o, sl, tx, sp = sbs_params[j]
            sbs_power += (o + sl * loads[j] * tx) if on_off[j] else sp
        for combo in itertools.product("MH", repeat=len(off_ids)):
            lam_m = base_mbs
            lam_h = base_haps
            for j, tgt in zip(off_ids, combo):
                if tgt == "M":
                    lam_m += scale_mbs * loads[j]
                else:
                    lam_h += scale_haps * loads[j]
            if lam_m > 1.0 or lam_h > 1.0:
                continue
            power = (
                haps[0]
                + haps[1] * lam_h * haps[2]
                + mbs[0]
                + mbs[1] * lam_m * mbs[2]
                + sbs_power
            )
            targets = ["-"] * s
            for j, tgt in zip(off_ids, combo):
                targets[j] = tgt
            if best is None or power < best[2]:
                best = (on_off, tuple(targets), power)
    return best


def naive_greedy(loads, base_mbs, base_haps, haps, mbs, sbs_params, scale_mbs, scale_haps):
    """Greedy switch-off with every trial state priced in full.

    SBSs are visited in ascending load order, equal loads by index. Each is
    moved onto the tier that still fits its offloaded load and costs less
    to offload it, in watts at its load (MBS on ties, so at load 0), and
    stays off only if total power strictly falls; the first
    candidate with no fitting tier or no gain ends the scan.
    Returns (on_off bits tuple, target letters tuple, power).
    """
    s = len(loads)
    targets = ["-"] * s

    def tier_loads():
        lam_m = base_mbs + sum(scale_mbs * loads[j] for j in range(s) if targets[j] == "M")
        lam_h = base_haps + sum(scale_haps * loads[j] for j in range(s) if targets[j] == "H")
        return lam_m, lam_h

    def power():
        lam_m, lam_h = tier_loads()
        total = haps[0] + haps[1] * lam_h * haps[2] + mbs[0] + mbs[1] * lam_m * mbs[2]
        for j in range(s):
            o, sl, tx, sp = sbs_params[j]
            total += (o + sl * loads[j] * tx) if targets[j] == "-" else sp
        return total

    current = power()
    for j in sorted(range(s), key=lambda j: (loads[j], j)):
        lam_m, lam_h = tier_loads()
        fits_m = lam_m + scale_mbs * loads[j] <= 1.0
        fits_h = lam_h + scale_haps * loads[j] <= 1.0
        cost_m = mbs[1] * mbs[2] * scale_mbs * loads[j]
        cost_h = haps[1] * haps[2] * scale_haps * loads[j]
        if fits_m and (not fits_h or cost_m <= cost_h):
            targets[j] = "M"
        elif fits_h:
            targets[j] = "H"
        else:
            break
        trial = power()
        if not trial < current:
            targets[j] = "-"
            break
        current = trial
    bits = tuple(1 if t == "-" else 0 for t in targets)
    return bits, tuple(targets), current
