#!/usr/bin/env python3
"""Write sample JSON inputs for the ellis-envelope CLI.

Creates channels (pinching, sigma-z conjugation, their average, the cyclic
shift on M_3, and nearfix: the average of the identity and conjugation by
diag(1, e^{i delta}, e^{2 pi i / 3}) on M_3 at delta = 1e-10, whose
eigenvalue 1 - O(delta) lies inside the fixed-space cut), operator spaces
(diagonals, span{I}, span{E_12}, span{I, x, x^*} for a normal x in M_4, and
span{I, x} for a Hermitian x in M_8), and Cayley tables, matching the
examples in the README.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from ellis_envelope import CayleyTable, ChannelMap, OperatorSubspace, cyclic_group, left_zero


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dest", default="inputs", help="output directory (default ./inputs)")
    args = ap.parse_args()
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)

    sz = np.diag([1.0, -1.0]).astype(complex)
    conj_sz = ChannelMap.conjugation(sz)
    half_sz = ChannelMap.from_superop(
        0.5 * (ChannelMap.identity(2).superop + conj_sz.superop), 2, 2
    )
    shift3 = ChannelMap.conjugation(np.roll(np.eye(3), 1, axis=0).astype(complex))
    u = np.diag([1.0, np.exp(1e-10j), np.exp(2j * np.pi / 3)])
    nearfix = ChannelMap(3, 3, 0.5 * (ChannelMap.identity(3).choi + ChannelMap.conjugation(u).choi))

    channels = {
        "channel_pinching_m2.json": ChannelMap.pinching(2),
        "channel_conj_sz.json": conj_sz,
        "channel_half_sz.json": half_sz,
        "channel_shift_m3.json": shift3,
        "channel_trace_state_m2.json": ChannelMap.trace_state(2),
        "channel_nearfix_m3.json": nearfix,
    }
    for name, phi in channels.items():
        (dest / name).write_text(json.dumps(phi.to_json(), default=np.ndarray.tolist, indent=2) + "\n")

    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    # x = Q diag(1, i, -1, -i) Q^*: each eigenvalue is a vertex of their hull,
    # so the envelope of span{I, x, x^*} is the rank-4 algebra Q diag(C^4) Q^*
    g = np.random.default_rng(4).standard_normal((2, 4, 4))
    q = np.linalg.qr(g[0] + 1j * g[1])[0]
    normal = q @ np.diag([1, 1j, -1, -1j]) @ q.conj().T
    # a Gaussian Hermitian x in M_8: span{I, x} has the rank-2 envelope
    # C^2, certified on a face of dimension 50
    g = np.random.default_rng(1).standard_normal((2, 8, 8))
    hermitian = (g[0] + 1j * g[1] + (g[0] + 1j * g[1]).conj().T) / 2
    spaces = {
        "space_diag_m2.json": (OperatorSubspace.from_matrices(
            [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
        ), "system"),
        "space_diag_m3.json": (OperatorSubspace.from_matrices(
            [np.diag(np.eye(3)[i]).astype(complex) for i in range(3)]
        ), "system"),
        "space_span_i_m2.json": (OperatorSubspace.from_matrices([np.eye(2, dtype=complex)]), "system"),
        "space_span_i_m3.json": (OperatorSubspace.from_matrices([np.eye(3, dtype=complex)]), "system"),
        "space_rigid_m2.json": (OperatorSubspace.from_matrices(
            [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex), sz]
        ), "system"),
        "space_corner_e12.json": (OperatorSubspace.from_matrices([e12]), "space"),
        "space_normal_m4.json": (OperatorSubspace.from_matrices([np.eye(4), normal, normal.conj().T]), "system"),
        "space_spanix_m8.json": (OperatorSubspace.from_matrices([np.eye(8), hermitian]), "system"),
    }
    for name, (space, mode) in spaces.items():
        (dest / name).write_text(json.dumps(space.to_json(mode), default=np.ndarray.tolist, indent=2) + "\n")

    tables = {
        "table_cyclic_3.json": cyclic_group(3),
        "table_left_zero_3.json": left_zero(3),
    }
    for name, sg in tables.items():
        (dest / name).write_text(json.dumps(sg.to_json(), indent=2) + "\n")

    names = sorted(list(channels) + list(spaces) + list(tables))
    print(f"wrote {len(names)} files to {dest}/")
    for n in names:
        print(f"  {n}")


if __name__ == "__main__":
    main()
