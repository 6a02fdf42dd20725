"""Text formats: matrices, tables, orbit files, circuits."""

import random

import pytest

from czorbits.errors import InputFormatError
from czorbits.io import (
    CHUNK_BYTES,
    TABLE_MAGIC,
    format_circuit,
    format_matrix,
    format_orbit_map,
    format_orbit_summary,
    format_table,
    orbit_map_records,
    parse_matrix,
    table_records,
    write_atomic,
)
from czorbits.matrices import CZ, H, I4, GateMatrix
from czorbits.ring import parse_entry
from czorbits.synth import CZ_OP, Circuit, LocalOp
from czorbits.workspace import ensure_tables, write_tables
from ringref import CycloNum, entry, parse


class TestMatrixFormat:
    @pytest.mark.parametrize("mat", [H, CZ, I4], ids=["H", "CZ", "I4"])
    def test_round_trip(self, mat):
        assert parse_matrix(format_matrix(mat)) == mat

    def test_round_trip_random_elements(self, ws):
        rng = random.Random(17)
        for eid in rng.sample(range(len(ws.c2)), 25):
            m = ws.c2.element(eid)
            assert parse_matrix(format_matrix(m)) == m

    def test_layout(self):
        text = format_matrix(H)
        lines = text.strip().splitlines()
        assert lines[0] == "2"
        assert len(lines) == 3
        assert all(len(line.split()) == 2 for line in lines[1:])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x\n1 0\n0 1\n",
            "3\n1 0 0\n0 1 0\n0 0 1\n",
            "2\n1 0\n",
            "2\n1 0 0\n0 1\n",
            "2\n1 bogus\n0 1\n",
            "2\n1 0\n0 1\n1 0\n",
            "\u0662\n1,0,0,0/0 0,0,0,0/0\n0,0,0,0/0 1,0,0,0/0\n",
            "2\n1_0,0,0,0/0 0,0,0,0/0\n0,0,0,0/0 1,0,0,0/0\n",
            "2\n1,0,0,0/17 0,0,0,0/0\n0,0,0,0/0 1,0,0,0/0\n",
            "2\n1048576,0,0,0/0 0,0,0,0/0\n0,0,0,0/0 1,0,0,0/0\n",
        ],
        ids=[
            "empty",
            "bad-dim",
            "unsupported-dim",
            "missing-row",
            "ragged-row",
            "bad-entry",
            "extra-row",
            "non-ascii-dim",
            "underscore-entry",
            "exponent-17",
            "coefficient-2^20",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(InputFormatError):
            parse_matrix(text)


    def test_entries_parse_as_the_ring_reduces_them(self):
        # neither entry is in reduced form: 2/√2² = 1 and (1 + ω²)/√2 = ω
        tokens = ["2,0,0,0/2", "1,0,1,0/1", "0,0,0,0/3", "-3,1,0,2/4"]
        text = "2\n%s %s\n%s %s\n" % tuple(tokens)
        expect = GateMatrix.from_entries(
            [[parse(t) for t in tokens[:2]], [parse(t) for t in tokens[2:]]]
        )
        assert parse_matrix(text) == expect
        assert entry(expect, 0, 0) == CycloNum(1) and entry(expect, 0, 1) == CycloNum(0, 1)


class TestEntryCache:
    """`ring.parse_entry` is memoised; a raising token is not cached."""

    @pytest.mark.parametrize(
        "token", ["\u0661,0,0,0/0", "1,0,0,0/17", "1048576,0,0,0/0"],
        ids=["malformed", "exponent-17", "coefficient-2^20"],
    )
    def test_a_bad_token_raises_alike_every_time(self, token):
        text = f"2\n{token} 0,0,0,0/0\n0,0,0,0/0 1,0,0,0/0\n"
        messages = []
        for _ in range(2):
            with pytest.raises(InputFormatError) as err:
                parse_matrix(text)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert repr(token) in messages[0]

    def test_the_cache_is_bounded(self):
        assert 0 < parse_entry.cache_info().maxsize <= 1024
        for n in range(2000):
            parse_entry(f"{n},0,0,0/0")
        assert parse_entry.cache_info().currsize == parse_entry.cache_info().maxsize


class TestTableFormat:
    def test_round_trip(self, ws, tmp_path):
        path = tmp_path / "c1.tbl"
        write_atomic(path, format_table(ws.c1).encode())
        lines = path.read_text().splitlines()
        assert lines[0] == f"{TABLE_MAGIC} v1 c1 192"
        records = ["\n".join(lines[at : at + 3]) for at in range(1, len(lines), 3)]
        assert [parse_matrix(r) for r in records] == [ws.c1.element(e) for e in range(len(ws.c1))]

    def test_header_contents(self, ws):
        blob = format_table(ws.c1)
        header = blob[: blob.index("\n")]
        assert header == f"{TABLE_MAGIC} v1 c1 192"

    def test_byte_determinism(self, ws):
        one = format_table(ws.lc2)
        two = format_table(ws.lc2)
        assert one == two

    def test_truncated_rejected(self, ws, tmp_path):
        path = tmp_path / "c1.tbl"
        write_atomic(path, format_table(ws.c1).encode())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(InputFormatError):
            ensure_tables(ws, tmp_path, validate=True)

    def test_trailing_data_rejected(self, ws, tmp_path):
        path = tmp_path / "c1.tbl"
        write_atomic(path, format_table(ws.c1).encode())
        path.write_bytes(path.read_bytes() + b"junk\n")
        with pytest.raises(InputFormatError):
            ensure_tables(ws, tmp_path, validate=True)

    def test_atomic_rewrite_leaves_no_temp_file(self, ws, tmp_path):
        path = tmp_path / "c1.tbl"
        path.write_bytes(b"stale\n")
        write_atomic(path, format_table(ws.c1).encode())
        assert path.read_bytes() == format_table(ws.c1).encode()
        assert [p.name for p in tmp_path.iterdir()] == ["c1.tbl"]

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "c1.tbl"
        path.write_bytes(b"old\n")
        with pytest.raises(TypeError):
            write_atomic(path, "not bytes")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c1.tbl"]

    def test_bad_header_rejected(self, ws, tmp_path):
        path = tmp_path / "c1.tbl"
        path.write_bytes(b"NOT-A-TABLE" + format_table(ws.c1).encode()[len(TABLE_MAGIC) :])
        with pytest.raises(InputFormatError):
            ensure_tables(ws, tmp_path, validate=True)


class TestTableStreaming:
    def test_c2_streams_in_chunks_of_at_most_one_mib(self, ws):
        sizes = [len(chunk) for chunk in table_records(ws.c2)]
        assert len(sizes) > 2
        assert max(sizes) <= 1 << 20

    def test_corruption_past_the_first_chunk_rejected(self, ws, tmp_path):
        write_tables(ws, tmp_path)
        ensure_tables(ws, tmp_path, validate=True)
        path = tmp_path / "c2.tbl"
        blob = bytearray(path.read_bytes())
        at = next(i for i in range(len(blob) * 3 // 4, len(blob)) if blob[i : i + 1].isdigit())
        assert at > 1 << 20
        blob[at] = ord("8") if blob[at] == ord("7") else ord("7")
        path.write_bytes(blob)
        with pytest.raises(InputFormatError):
            ensure_tables(ws, tmp_path, validate=True)


class TestOrbitFiles:
    def test_map_covers_every_element(self, ws):
        lines = format_orbit_map(ws.atlas).strip().splitlines()
        assert len(lines) == 92160
        eids = [int(line.split()[0]) for line in lines]
        assert eids == list(range(92160))
        oids = {int(line.split()[1]) for line in lines}
        assert oids == set(range(1, 21))

    def test_map_streams_in_bounded_chunks(self, ws):
        chunks = list(orbit_map_records(ws.atlas))
        assert len(chunks) > 1
        assert all(0 < len(chunk) <= CHUNK_BYTES for chunk in chunks)
        assert b"".join(chunks) == format_orbit_map(ws.atlas).encode()

    def test_summary_shape(self, ws):
        lines = format_orbit_summary(ws.atlas, ws.c2).strip().splitlines()
        assert len(lines) == 20
        first = lines[0].split()
        assert first[0] == "1"
        assert first[1] == "0"
        assert first[2] == "4608"
        layers = [int(line.split()[1]) for line in lines]
        assert sorted(layers) == [0] + [1] * 9 + [2] * 9 + [3]


class TestCircuitFormat:
    def test_known_output(self):
        circuit = Circuit(
            (LocalOp(("H", "P"), ()), CZ_OP, LocalOp((), ("H",)))
        )
        text = format_circuit(circuit)
        assert text.splitlines() == [
            "CZ-COUNT 1",
            "LOCAL a=HP b=",
            "CZ",
            "LOCAL a= b=H",
        ]

    def test_time_order_reverses_ops_only(self):
        circuit = Circuit(
            (LocalOp(("H", "P"), ()), CZ_OP, LocalOp((), ("H",)))
        )
        text = format_circuit(circuit, time_order=True)
        assert text.splitlines() == [
            "CZ-COUNT 1",
            "LOCAL a= b=H",
            "CZ",
            "LOCAL a=HP b=",
        ]

    def test_empty_circuit(self):
        assert format_circuit(Circuit(())).splitlines() == ["CZ-COUNT 0"]
