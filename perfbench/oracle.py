"""Output oracle: pinned artefact digests and independent answer checks.

Nothing here imports czorbits. Expected answers come from the six pinned
artefacts (accepted only when their full sha256 matches) and from plain
complex arithmetic on H, P and CZ, so a defect in the library cannot vouch
for its own output.
"""

from __future__ import annotations

import hashlib
import json
import re
from array import array
from pathlib import Path

import numpy as np

# Full sha256 of what `generate`, `orbits` and `graph --format json` write.
# ROADMAP.md records the first 16 hex digits of each.
ARTEFACT_SHA256 = {
    "c1.tbl": "aca831ea4868d206a7ab99673323ab359a775222df8561910f3fcf66b7166251",
    "lc2.tbl": "4522a55970e66fcb2594804238fb4d8b305794e7b5c936389382872c2a115c56",
    "c2.tbl": "bee768a808e40b5ec936b5d92f2a00865a57afd5da46af825b512097466a682b",
    "orbit_map.txt": "d6e982c5abacf75bf12efa300cd11ce6ac0daaa2700cac4b8aea738aa4cf3ad1",
    "orbit_summary.txt": "4127de000936f3421753a7751ff6f46ba0724098056d965d47506c087448a6e0",
    "graph.json": "b87524bc43635d21d933be3da9e9e284a0908788057f6de0c21768c3f6855b60",
}

# The artefacts each atlas command is responsible for.
COMMAND_ARTEFACTS = {
    "generate": ("c1.tbl", "lc2.tbl", "c2.tbl"),
    "orbits": ("orbit_map.txt", "orbit_summary.txt"),
    "graph": ("graph.json",),
}

C2_ORDER = 92160
SYNTH_TOLERANCE = 1e-9


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artefact_mismatches(out_dir: Path, names=tuple(ARTEFACT_SHA256)) -> list[str]:
    """Names among `names` that are missing or differ from their pin."""
    return [
        name
        for name in names
        if not (out_dir / name).is_file()
        or sha256_of(out_dir / name) != ARTEFACT_SHA256[name]
    ]


# --- independent complex arithmetic -------------------------------------

_OMEGA_POWERS = np.exp(1j * np.pi / 4) ** np.arange(4)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_P = np.diag([1, 1j])
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_LETTERS = {"H": _H, "P": _P}


def entry_value(token: str) -> complex:
    """Value of one "a,b,c,d/k" entry: (a + bω + cω² + dω³) / √2^k."""
    body, _, k = token.partition("/")
    coeffs = np.array([int(c) for c in body.split(",")])
    return complex(coeffs @ _OMEGA_POWERS) / 2 ** (int(k) / 2)


def matrix_value(text: str) -> np.ndarray:
    lines = text.split()
    dim = int(lines[0])
    values = [entry_value(tok) for tok in lines[1:]]
    return np.array(values, dtype=complex).reshape(dim, dim)


def _word_value(word: str) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for letter in word:
        m = m @ _LETTERS[letter]
    return m


_LOCAL = re.compile(r"LOCAL a=([HP]*) b=([HP]*)")


def synth_problems(matrix_text: str, stdout: str, layer: int) -> list[str]:
    """Why a `synth` answer is wrong, or [] when it is right.

    The circuit lines multiply left to right; each LOCAL layer is the
    tensor product of its two H/P words. The product must equal the input
    within SYNTH_TOLERANCE, and the declared and actual CZ counts must both
    equal the input's layer (its minimal CZ count).
    """
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("CZ-COUNT "):
        return ["no CZ-COUNT header"]
    problems = []
    declared = int(lines[0].split()[1])
    if declared != layer:
        problems.append(f"CZ-COUNT {declared}, layer is {layer}")
    u = np.eye(4, dtype=complex)
    cz_seen = 0
    for line in lines[1:]:
        if line == "CZ":
            u = u @ _CZ
            cz_seen += 1
            continue
        m = _LOCAL.fullmatch(line)
        if m is None:
            return problems + [f"unparsable circuit line {line!r}"]
        u = u @ np.kron(_word_value(m.group(1)), _word_value(m.group(2)))
    if cz_seen != declared:
        problems.append(f"{cz_seen} CZ lines under CZ-COUNT {declared}")
    err = float(np.abs(u - matrix_value(matrix_text)).max())
    if not err <= SYNTH_TOLERANCE:
        problems.append(f"circuit differs from the input by {err:.3g}")
    return problems


def is_unitary_value(m: np.ndarray) -> bool:
    return float(np.abs(m @ m.conj().T - np.eye(len(m))).max()) < 0.5


# --- expected answers ----------------------------------------------------


class Reference:
    """Expected answers, read from pinned artefacts into compact arrays.

    Only record offsets into c2.tbl are held, not the table itself, so the
    oracle adds little to the memory of the process it runs in.
    """

    def __init__(self, atlas_dir: Path) -> None:
        self._c2 = open(atlas_dir / "c2.tbl", "rb")
        self._offsets = array("q")
        pos = len(self._c2.readline())
        for line in self._c2:
            if line == b"4\n":
                self._offsets.append(pos)
            pos += len(line)
        self._offsets.append(pos)
        if len(self._offsets) != C2_ORDER + 1:
            raise ValueError("c2.tbl does not hold 92160 records")
        self.orbit_of = array("b")
        with open(atlas_dir / "orbit_map.txt", "rb") as f:
            for eid, line in enumerate(f):
                e, o = line.split()
                if int(e) != eid:
                    raise ValueError("orbit map is not in element order")
                self.orbit_of.append(int(o))
        self.layer_of_orbit = {}
        with open(atlas_dir / "orbit_summary.txt") as f:
            for line in f:
                oid, layer = line.split()[:2]
                self.layer_of_orbit[int(oid)] = int(layer)
        graph = json.loads((atlas_dir / "graph.json").read_text())
        self.reference_label = {n["id"]: n["reference_label"] for n in graph["nodes"]}

    def close(self) -> None:
        self._c2.close()

    def __enter__(self) -> Reference:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def record(self, eid: int) -> str:
        """Matrix text of element `eid`, exactly as c2.tbl stores it."""
        start, end = self._offsets[eid], self._offsets[eid + 1]
        self._c2.seek(start)
        return self._c2.read(end - start).decode()

    def layer(self, eid: int) -> int:
        return self.layer_of_orbit[self.orbit_of[eid]]

    def lookup_stdout(self, eid: int) -> str:
        oid = self.orbit_of[eid]
        return (
            f"element {eid}\n"
            f"orbit O{oid}\n"
            f"reference-label {self.reference_label[oid]}\n"
            f"layer {self.layer_of_orbit[oid]}\n"
        )


# Exit code and stderr fragment the CLI documents for each non-member kind.
NON_MEMBER_ERRORS = {
    "non-clifford": "unitary but not an element",
    "non-unitary": "is not unitary",
}


def query_problem(query, outcome, ref: Reference) -> str | None:
    """Why `outcome` is the wrong response to `query`, or None.

    `query` has .command, .kind, .eid and .matrix; `outcome` has .code
    (None when an exception escaped), .stdout, .stderr and .error.
    """
    if outcome.code is None:
        return f"traceback: {outcome.error}"
    if query.kind == "member":
        if outcome.code != 0:
            return f"exit {outcome.code} for a member: {outcome.stderr.strip()}"
        if query.command == "lookup":
            if outcome.stdout != ref.lookup_stdout(query.eid):
                return f"wrong lookup answer {outcome.stdout!r}"
            return None
        problems = synth_problems(
            query.matrix or ref.record(query.eid), outcome.stdout, ref.layer(query.eid)
        )
        return "; ".join(problems) or None
    if outcome.code != 4:
        return f"exit {outcome.code} for a {query.kind} input"
    if NON_MEMBER_ERRORS[query.kind] not in outcome.stderr:
        return f"wrong message for a {query.kind} input: {outcome.stderr.strip()}"
    return None
