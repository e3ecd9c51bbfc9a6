"""The discrete region one profile row and one point at a time, as it stood
before the columnar layout.

``reference_triplet`` is the scalar (r_u1, r_u2, d_u2) of one profile row.
``reference_points`` walks the rows, keeps each policy with
r_u1 >= -RATE_FLOOR and appends its curve points to a list of tuples.
``reference_summary`` takes every best value with a first-strictly-greater
loop, the secrecy rate from the scalar triplets.  ``reference_csv`` formats
each cell on its own, ``format(x, ".12g")`` for a float and ``str`` for
anything else, and joins the whole file into one string.  The tests require
``discrete-region``'s region.csv and summary.json, and ``write_csv``, to
reproduce these byte for byte.
"""

import dataclasses
import json
import os

from wiretapsi.discrete import RATE_FLOOR, _profiles


def reference_triplet(mi_uy, mi_uv, mi_uz):
    r_u1 = mi_uy - max(mi_uv, mi_uz)
    r_u2 = mi_uy - mi_uv
    r_u1 = 0.0 if abs(r_u1) <= RATE_FLOOR else r_u1
    r_u2 = 0.0 if abs(r_u2) <= RATE_FLOOR else r_u2
    d_u2 = min(1.0, max(0.0, r_u1 / r_u2)) if r_u2 > RATE_FLOOR else 1.0
    return r_u1, r_u2, d_u2


def reference_points(mi, curve_points):
    """(r, d, policy_id) of every region point, the trivial (0, 1) first."""
    points = [(0.0, 1.0, -1)]
    for pid, row in enumerate(mi.tolist()):
        r_u1, r_u2, d_u2 = reference_triplet(*row[:3])
        if r_u1 < -RATE_FLOOR:
            continue
        r1 = max(r_u1, 0.0)
        r2 = max(r_u2, r1)
        points.append((r1, 1.0, pid))
        if r2 <= r1 + RATE_FLOOR:
            continue
        points.append((r2, d_u2, pid))
        for k in range(1, curve_points - 1):
            r = r1 + (r2 - r1) * k / (curve_points - 1)
            points.append((r, r1 / r if r > RATE_FLOOR else 1.0, pid))
    return points


def _first_best(values):
    best, best_id = 0.0, -1
    for pid, value in enumerate(values):
        if value > best:
            best, best_id = value, pid
    return best, best_id


def reference_summary(mi, mi_v1):
    rate = _first_best([reference_triplet(*row[:3])[0] for row in mi.tolist()])
    state = _first_best((mi[:, 0] - mi[:, 3]).tolist())
    tap = _first_best((mi[:, 0] - mi[:, 2]).tolist())
    capacity = _first_best((mi_v1[:, 0] - mi_v1[:, 3]).tolist())
    return {
        "secrecy_rate": rate[0],
        "secrecy_upper_bound": min(state[0], tap[0]),
        "main_channel_capacity": capacity[0],
        "best_policies": {"secrecy_rate": rate[1], "state_bound": state[1],
                          "wiretap_bound": tap[1], "main_channel_capacity": capacity[1]},
    }


def reference_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format(float(cell), ".12g") if isinstance(cell, float) else str(cell)
            for cell in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_discrete_region(model, search, out):
    """Write region.csv and summary.json of discrete-region into out."""
    os.makedirs(out, exist_ok=True)
    mi = _profiles(model, search)
    mi_v1 = mi if search.mode == "v1" else _profiles(
        model, dataclasses.replace(search, mode="v1"))
    points = reference_points(mi, search.curve_points)
    summary = reference_summary(mi, mi_v1)
    summary.update(max_r_u1=summary["secrecy_rate"], points=len(points))
    reference_csv(os.path.join(out, "region.csv"), ("R", "d", "policy_id"), points)
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return points
