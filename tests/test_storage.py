"""On-disk chunk format, chunking, pruning, and the catalog."""

import itertools
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybench import (
    Array,
    ArraySchema,
    AttributeSpec,
    Box,
    Catalog,
    DimensionSpec,
    chunk_array,
    make_dense_chunk,
    make_sparse_chunk,
    materialize,
    metered,
    read_chunk,
    rebox,
    rebox_stored,
    tile_box,
    write_chunk,
)
from arraybench.model import (
    EMPTY_ZONE_FLOAT,
    EMPTY_ZONE_INT,
    Chunk,
    box_intersect,
    compute_zone_meta,
)
from arraybench.errors import (
    CatalogError,
    ConfigError,
    DomainError,
    FormatError,
    SchemaError,
)
from tests.conftest import make_dense_2d


def dense_schema():
    return ArraySchema("d", (DimensionSpec("x", 0, 9),
                             DimensionSpec("y", 0, 7)),
                       (AttributeSpec("v", "int64"),
                        AttributeSpec("f", "float64")), "dense")


def sparse_schema():
    return ArraySchema("s", (DimensionSpec("x", 0, 99),
                             DimensionSpec("y", 0, 99)),
                       (AttributeSpec("v", "int64"),), "sparse")


def random_dense_chunk(rng, schema=None, box=None):
    schema = schema or dense_schema()
    box = box or schema.box
    n = box.volume
    return make_dense_chunk(
        schema, box,
        {"v": rng.integers(-100, 100, n),
         "f": rng.normal(size=n)},
        rng.random(n) < 0.8)


class TestTileBox:
    def test_exact_tiling(self):
        tiles = tile_box(Box((0, 0), (9, 9)), (5, 5))
        assert len(tiles) == 4
        assert sum(t.volume for t in tiles) == 100

    def test_clipped_at_edges(self):
        tiles = tile_box(Box((0, 0), (9, 6)), (4, 4))
        assert len(tiles) == 6
        assert sum(t.volume for t in tiles) == 70
        # Tiles partition the box: no overlaps, full coverage.
        seen = set()
        for t in tiles:
            for x in range(t.lo[0], t.hi[0] + 1):
                for y in range(t.lo[1], t.hi[1] + 1):
                    assert (x, y) not in seen
                    seen.add((x, y))
        assert len(seen) == 70

    def test_negative_lower_bounds(self):
        tiles = tile_box(Box((-3,), (3,)), (2,))
        assert [t.ranges() for t in tiles] == \
            [((-3, -2),), ((-1, 0),), ((1, 2),), ((3, 3),)]


class TestChunking:
    def test_dense_regular_preserves_cells(self, rng):
        schema = dense_schema()
        n = schema.box.volume
        grids = {"v": rng.integers(0, 100, n), "f": rng.normal(size=n)}
        valid = rng.random(n) < 0.7
        chunks = chunk_array(schema, {**grids, "__valid__": valid}, (4, 3))
        assert sum(c.box.volume for c in chunks) == n
        # Reassemble and compare against the source grids.
        vgrid = np.zeros(schema.box.extents, dtype=np.int64)
        vmask = np.zeros(schema.box.extents, dtype=bool)
        for c in chunks:
            sl = tuple(slice(l, h + 1) for l, h in c.box.ranges())
            vgrid[sl] = c.columns["v"].reshape(c.box.extents)
            vmask[sl] = c.validity.reshape(c.box.extents)
        assert np.array_equal(vgrid.ravel(), np.asarray(grids["v"]))
        assert np.array_equal(vmask.ravel(), valid)

    def test_sparse_regular_drops_empty_tiles(self, rng):
        schema = sparse_schema()
        # All cells in one corner: only one populated tile survives.
        data = {"x": rng.integers(0, 10, 20), "y": rng.integers(0, 10, 20),
                "v": rng.integers(0, 5, 20)}
        chunks = chunk_array(schema, data, (50, 50))
        assert len(chunks) == 1
        assert chunks[0].cell_count == 20

    def test_bad_strategies_rejected(self, rng):
        schema = dense_schema()
        n = schema.box.volume
        data = {"v": rng.integers(0, 100, n), "f": rng.normal(size=n)}
        with pytest.raises(ConfigError):
            chunk_array(schema, data, (0, 5))
        with pytest.raises(ConfigError):
            chunk_array(schema, data, (5,))

    @pytest.mark.parametrize("density", ["dense", "sparse"])
    @pytest.mark.parametrize("sub", [False, True])
    def test_matches_naive_tiles(self, rng, density, sub):
        """Each chunk holds its tile's cells in order, looked up one cell
        at a time, with zones over its valid cells; sparse tiles without
        cells are dropped and the ids stay consecutive."""
        schema = ArraySchema("t", (DimensionSpec("x", -3, 10),
                                   DimensionSpec("y", 0, 8)),
                             (AttributeSpec("v", "int64"),
                              AttributeSpec("f", "float64")), density)
        box = Box((-1, 2), (9, 7)) if sub else schema.box
        shape = (4, 3)
        ranges = [range(lo, hi + 1) for lo, hi in box.ranges()]
        if density == "dense":
            cells = list(itertools.product(*ranges))
            valid = rng.random(len(cells)) < 0.6
            # One tile with no valid cell.
            valid[[i for i, (x, y) in enumerate(cells)
                   if x < box.lo[0] + 4 and y < box.lo[1] + 3]] = False
            data = {"__valid__": valid}
        else:
            # Cells in the lower x half only, so whole tiles stay empty.
            lower = [c for c in itertools.product(*ranges) if c[0] < 3]
            cells = [lower[i] for i in rng.choice(len(lower), 15,
                                                  replace=False)]
            valid = np.ones(len(cells), dtype=bool)
            data = {"x": [c[0] for c in cells], "y": [c[1] for c in cells]}
        data["v"] = rng.integers(-50, 50, len(cells))
        data["f"] = rng.normal(size=len(cells))
        chunks = chunk_array(schema, data, shape, box=box if sub else None)

        want = []
        for tile in tile_box(box, shape):
            inside = [i for i, cell in enumerate(cells)
                      if all(lo <= c <= hi
                             for c, lo, hi in zip(cell, tile.lo, tile.hi))]
            if inside or density == "dense":
                want.append((tile, inside))
        assert density == "dense" or len(want) < len(tile_box(box, shape))
        assert [c.box for c in chunks] == [tile for tile, _ in want]
        assert [c.chunk_id for c in chunks] == list(range(len(want)))
        for chunk, (tile, inside) in zip(chunks, want):
            assert chunk.layout == density
            if density == "dense":
                assert chunk.validity.tolist() == valid[inside].tolist()
                zones = dict(zip(("x", "y"), tile.ranges()))
            else:
                for d, col in chunk.dim_columns.items():
                    assert col.tolist() == [cells[i][d == "y"]
                                            for i in inside]
                zones = {d: (min(cells[i][k] for i in inside),
                             max(cells[i][k] for i in inside))
                         for k, d in enumerate(("x", "y"))}
            for a, empty in (("v", EMPTY_ZONE_INT), ("f", EMPTY_ZONE_FLOAT)):
                assert chunk.columns[a].tolist() == data[a][inside].tolist()
                kept = [data[a][i] for i in inside if valid[i]]
                zones[a] = (min(kept), max(kept)) if kept else empty
            assert chunk.zone_meta == zones


class TestChunkFileFormat:
    def test_dense_round_trip(self, rng, tmp_path):
        schema = dense_schema()
        chunk = random_dense_chunk(rng)
        path = tmp_path / "c.chk"
        nbytes = write_chunk(chunk, schema, str(path))
        assert nbytes == path.stat().st_size
        back = read_chunk(str(path), schema)
        assert back.box == chunk.box
        assert back.layout == chunk.layout
        assert np.array_equal(back.validity, chunk.validity)
        for a in ("v", "f"):
            assert np.array_equal(back.columns[a], chunk.columns[a])
            assert back.zone_meta[a] == chunk.zone_meta[a]

    def test_sparse_round_trip(self, rng, tmp_path):
        schema = sparse_schema()
        chunk = make_sparse_chunk(schema, schema.box,
                                  {"x": rng.integers(0, 100, 30),
                                   "y": rng.integers(0, 100, 30)},
                                  {"v": rng.integers(-5, 5, 30)})
        path = tmp_path / "c.chk"
        write_chunk(chunk, schema, str(path))
        back = read_chunk(str(path), schema)
        for d in ("x", "y"):
            assert np.array_equal(back.dim_columns[d], chunk.dim_columns[d])
        assert np.array_equal(back.columns["v"], chunk.columns["v"])

    def test_selective_read_exact_byte_savings(self, rng, tmp_path):
        """Skipping a column block saves exactly its length-prefixed
        payload; the seek costs nothing."""
        schema = dense_schema()
        chunk = random_dense_chunk(rng)
        path = tmp_path / "c.chk"
        write_chunk(chunk, schema, str(path))
        full = read_chunk(str(path), schema)
        only_v = read_chunk(str(path), schema, columns=["v"])
        only_f = read_chunk(str(path), schema, columns=["f"])
        n = chunk.box.volume
        assert full.bytes_read - only_v.bytes_read == n * 8
        assert full.bytes_read - only_f.bytes_read == n * V_WIDTH
        assert "f" not in only_v.columns
        assert np.array_equal(only_v.columns["v"], chunk.columns["v"])
        # Dense dimensions cost zero extra bytes: they are suppressed.
        with_dims = read_chunk(str(path), schema, columns=["v", "x", "y"])
        assert with_dims.bytes_read == only_v.bytes_read

    def test_sparse_selective_read_keeps_coords(self, rng, tmp_path):
        schema = sparse_schema()
        chunk = make_sparse_chunk(schema, schema.box,
                                  {"x": [1, 2], "y": [3, 4]},
                                  {"v": [10, 20]})
        path = tmp_path / "c.chk"
        write_chunk(chunk, schema, str(path))
        back = read_chunk(str(path), schema, columns=["v"])
        assert np.array_equal(back.dim_columns["x"], [1, 2])
        assert back.cell_count == 2

    def test_layout_other_than_schema_density(self, rng, tmp_path):
        """A mixed array (``combine`` of a dense and a sparse one) keeps
        each chunk in its own layout under one schema; a read follows the
        file's layout. Where the schema's head is the shorter one, the rest
        of the head is read by a second call; where it is the longer, the
        first call reads past the head, and ``bytes_read`` counts that."""
        schema = dense_schema()
        as_sparse = ArraySchema("d", schema.dims, schema.attrs, "sparse")
        dense = random_dense_chunk(rng)
        sparse = make_sparse_chunk(as_sparse, schema.box,
                                   {"x": [1, 9], "y": [0, 7]},
                                   {"v": [3, -4], "f": [0.5, np.nan]})
        for chunk, read_as, extra in ((dense, as_sparse, 17 * 2 - 8),
                                      (sparse, schema, 0)):
            path = str(tmp_path / f"{chunk.layout}.chk")
            nbytes = write_chunk(chunk, read_as, path)
            back = read_chunk(path, read_as)
            assert back.layout == chunk.layout
            assert back.bytes_read == nbytes + extra
            assert back.zone_meta == chunk.zone_meta
            for a in ("v", "f"):
                assert np.array_equal(back.columns[a], chunk.columns[a],
                                      equal_nan=True)
        assert np.array_equal(back.dim_columns["x"], [1, 9])

    def test_unknown_column_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), schema, str(path))
        with pytest.raises(SchemaError):
            read_chunk(str(path), schema, columns=["nope"])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.chk"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(FormatError):
            read_chunk(str(path), dense_schema())

    def test_truncated_file_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), schema, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(FormatError):
            read_chunk(str(path), schema)

    def test_schema_mismatch_rejected(self, rng, tmp_path):
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), dense_schema(), str(path))
        other = ArraySchema("d", (DimensionSpec("x", 0, 9),),
                            (AttributeSpec("v", "int64"),), "dense")
        with pytest.raises(FormatError):
            read_chunk(str(path), other)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            read_chunk(str(tmp_path / "missing.chk"), dense_schema())


# Each stored column's head: width byte, frame lo and payload length. The
# int64 ``v`` of random_dense_chunk spans at most 199, so it is stored in 1
# byte per cell; the float64 ``f`` is stored raw in 8.
COLUMN_HEAD = 1 + 8 + 8
V_WIDTH = 1
# The head of a dense_schema() chunk file (magic, version, layout and
# counts; box bounds; kind and zone per attribute; bitmap length; cell
# count; both column heads), and the bitmap that follows it.
DENSE_HEAD = 10 + 16 * 2 + 17 * 2 + 8 + 8 + 2 * COLUMN_HEAD
DENSE_BITMAP = (10 * 8 + 7) // 8


@st.composite
def dense_cases(draw):
    """A 1-D to 3-D chunk box, a query box that meets it, a validity mask
    and a value seed."""
    ndim = draw(st.integers(1, 3))
    lo = [draw(st.integers(-4, 4)) for _ in range(ndim)]
    hi = [l + draw(st.integers(0, 5)) for l in lo]
    qlo, qhi = [], []
    for l, h in zip(lo, hi):
        p = draw(st.integers(l, h))
        qlo.append(p - draw(st.integers(0, 3)))
        qhi.append(p + draw(st.integers(0, 3)))
    box = Box(tuple(lo), tuple(hi))
    valid = draw(st.lists(st.booleans(), min_size=box.volume,
                          max_size=box.volume))
    return box, Box(tuple(qlo), tuple(qhi)), valid, draw(st.integers(0, 2**32))


class TestBoxedRead:
    @settings(max_examples=60, deadline=None)
    @given(case=dense_cases())
    def test_matches_clipped_full_read(self, case):
        box, query, valid, seed = case
        schema = ArraySchema(
            "h", tuple(DimensionSpec(f"d{i}", l, h)
                       for i, (l, h) in enumerate(box.ranges())),
            (AttributeSpec("v", "int64"), AttributeSpec("f", "float64")),
            "dense")
        rng = np.random.default_rng(seed)
        chunk = make_dense_chunk(schema, box,
                                 {"v": rng.integers(-9, 10, box.volume),
                                  "f": rng.normal(size=box.volume)}, valid)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.chk")
            write_chunk(chunk, schema, path)
            full = read_chunk(path, schema)
            banded = read_chunk(path, schema, box=query)
        assert banded.bytes_read <= full.bytes_read
        (want,) = rebox(Array(schema, [full]), query).chunks
        (got,) = rebox(Array(schema, [banded]), query).chunks
        assert got.box == want.box
        assert np.array_equal(got.validity, want.validity)
        for a in ("v", "f"):
            assert np.array_equal(got.columns[a], want.columns[a])
        assert got.zone_meta == want.zone_meta

    def test_box_covering_chunk_reads_what_full_read_reads(self, rng,
                                                           tmp_path):
        schema = dense_schema()
        chunk = random_dense_chunk(rng)
        path = str(tmp_path / "c.chk")
        write_chunk(chunk, schema, path)
        full = read_chunk(path, schema)
        for box in (chunk.box, Box((-5, -5), (20, 20))):
            same = read_chunk(path, schema, box=box)
            assert same.bytes_read == full.bytes_read
            assert same.box == chunk.box
            assert np.array_equal(same.validity, chunk.validity)

    def test_byte_count_is_exact(self, rng, tmp_path):
        schema = dense_schema()
        chunk = random_dense_chunk(rng)
        path = str(tmp_path / "c.chk")
        write_chunk(chunk, schema, path)
        full = read_chunk(path, schema)
        assert full.bytes_read == DENSE_HEAD + DENSE_BITMAP + \
            80 * V_WIDTH + 80 * 8
        # x spans more than one value, so the band read is rows x = 2..4
        # in full: cells 16..39, bitmap bytes 2..4. Only the box's 9 cells
        # are returned.
        band = read_chunk(path, schema, columns=["v"],
                          box=Box((2, 3), (4, 5)))
        assert band.box == Box((2, 3), (4, 5))
        assert band.bytes_read == DENSE_HEAD + 3 + 24 * V_WIDTH
        assert np.array_equal(band.columns["v"],
                              chunk.columns["v"].reshape(10, 8)[2:5, 3:6]
                              .ravel())
        # One cell at offset 11: one bitmap byte, read from bit 3.
        one = read_chunk(path, schema, box=Box((1, 3), (1, 3)))
        assert one.box == Box((1, 3), (1, 3))
        assert one.bytes_read == DENSE_HEAD + 1 + V_WIDTH + 8
        assert one.validity.tolist() == [chunk.validity[11]]
        assert one.columns["f"].tolist() == [chunk.columns["f"][11]]

    def test_box_missing_chunk_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = str(tmp_path / "c.chk")
        write_chunk(random_dense_chunk(rng), schema, path)
        with pytest.raises(DomainError):
            read_chunk(path, schema, box=Box((10, 0), (12, 7)))

    def test_sparse_chunk_clipped_to_box(self, rng, tmp_path):
        """A sparse read returns chunk ∩ box, with zones over the kept
        cells; every coordinate is still read to find them."""
        schema = sparse_schema()
        chunk = make_sparse_chunk(schema, schema.box,
                                  {"x": rng.integers(0, 20, 30),
                                   "y": rng.integers(0, 20, 30)},
                                  {"v": rng.integers(-5, 5, 30)})
        path = str(tmp_path / "c.chk")
        write_chunk(chunk, schema, path)
        full = read_chunk(path, schema)
        query = Box((-5, 3), (8, 9))
        boxed = read_chunk(path, schema, box=query)
        assert boxed.bytes_read == full.bytes_read
        assert boxed.box == Box((0, 3), (8, 9))
        xs, ys = chunk.dim_columns["x"], chunk.dim_columns["y"]
        keep = (xs <= 8) & (ys >= 3) & (ys <= 9)
        assert 0 < keep.sum() < 30
        assert np.array_equal(boxed.dim_columns["x"], xs[keep])
        assert np.array_equal(boxed.dim_columns["y"], ys[keep])
        assert np.array_equal(boxed.columns["v"], chunk.columns["v"][keep])
        vs = chunk.columns["v"][keep]
        assert boxed.zone_meta == {
            "x": (xs[keep].min(), xs[keep].max()),
            "y": (ys[keep].min(), ys[keep].max()),
            "v": (vs.min(), vs.max())}
        # A box inside the chunk box that holds no cell.
        empty = read_chunk(path, schema, box=Box((50, 50), (60, 60)))
        assert empty.box == Box((50, 50), (60, 60))
        assert empty.cell_count == 0
        assert empty.bytes_read == full.bytes_read

    def test_truncated_inside_band_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), schema, str(path))
        # Column v's payload follows the head and the bitmap, and its band
        # (cells 16..39) starts 16 cells into it; cut the file 5 cells into
        # the band.
        band_start = DENSE_HEAD + DENSE_BITMAP + 16 * V_WIDTH
        path.write_bytes(path.read_bytes()[:band_start + 5 * V_WIDTH])
        with pytest.raises(FormatError):
            read_chunk(str(path), schema, box=Box((2, 3), (4, 5)))

    def test_rebox_stored_decodes_only_the_box(self, rng, tmp_path,
                                              monkeypatch):
        """Each dense chunk comes back from the read already clipped to
        the query, with exact zones, so nothing is clipped after it."""
        arr, grids, valid = make_dense_2d(rng, 16, 12, chunk_shape=(5, 5))
        cat = Catalog(tmp_path)
        cat.create_array(arr.schema)
        cat.add_chunks("a", arr.chunks)

        def no_clip(*args):
            raise AssertionError("a dense chunk was clipped after the read")

        monkeypatch.setattr("arraybench.algebra.clip_chunk", no_clip)
        for query in (Box((3, 2), (12, 8)), Box((7, 0), (7, 11)),
                      Box((0, 0), (15, 11)), Box((-3, 4), (4, 40))):
            out = rebox_stored(cat, "a", query)
            assert out.chunks
            for chunk in out.chunks:
                stored = cat.entry("a").ref(chunk.chunk_id).box
                assert chunk.box == box_intersect(stored, query)
                sl = tuple(slice(l, h + 1) for l, h in chunk.box.ranges())
                assert np.array_equal(chunk.validity, valid[sl].ravel())
                for a in ("a0", "a1"):
                    assert len(chunk.columns[a]) == chunk.box.volume
                    assert np.array_equal(chunk.columns[a],
                                          grids[a][sl].ravel())
                assert chunk.zone_meta == compute_zone_meta(
                    arr.schema, chunk.box, "dense", chunk.columns,
                    chunk.validity)

    def test_rebox_stored_tile_reads_a_tenth_of_its_chunk(self, rng,
                                                         tmp_path):
        arr, grids, valid = make_dense_2d(rng, 64, 64)
        cat = Catalog(tmp_path)
        cat.create_array(arr.schema)
        (ref,) = cat.add_chunks("a", arr.chunks)
        with metered() as meter:
            out = rebox_stored(cat, "a", Box((30, 30), (32, 32)))
        assert meter.bytes_read <= os.path.getsize(ref.locator) / 10
        sl = (slice(30, 33), slice(30, 33))
        for a in ("a0", "a1"):
            got, gvalid = materialize(out, a)
            assert np.array_equal(gvalid, valid[sl])
            assert np.array_equal(got[gvalid], grids[a][sl][valid[sl]])


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def narrowest_width(values) -> int:
    """Oracle: the bytes per cell of the narrowest unsigned width that
    holds max - min of ``values``; 1 for no values."""
    values = [int(v) for v in values]
    span = max(values) - min(values) if values else 0
    return next(w for w in (1, 2, 4, 8) if span < 2 ** (8 * w))


@st.composite
def int64_columns(draw, n):
    """n int64 values: offsets of up to 0, 8, 16, 32 or 64 bits from a base,
    or of just one more than that, wrapped into int64, optionally with both
    int64 extremes."""
    base = draw(st.integers(INT64_MIN, INT64_MAX))
    bits = draw(st.sampled_from([0, 8, 16, 32, 64]))
    top = 2 ** bits - 1 + (bits < 64 and draw(st.booleans()))
    offsets = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    if n:
        offsets[0], offsets[-1] = 0, top
    values = [(base + o - INT64_MIN) % 2**64 + INT64_MIN for o in offsets]
    if n >= 2 and draw(st.booleans()):
        values[0], values[-1] = INT64_MIN, INT64_MAX
    return np.array(values, dtype=np.int64)


@st.composite
def coded_dense_cases(draw):
    """A 1-D or 2-D dense chunk of one int64 and one float64 column whose
    invalid cells hold any int64, and a query box that meets it."""
    ndim = draw(st.integers(1, 2))
    extents = [draw(st.integers(1, 6)) for _ in range(ndim)]
    box = Box((0,) * ndim, tuple(e - 1 for e in extents))
    schema = ArraySchema(
        "c", tuple(DimensionSpec(f"d{i}", 0, e - 1)
                   for i, e in enumerate(extents)),
        (AttributeSpec("v", "int64"), AttributeSpec("f", "float64")),
        "dense")
    n = box.volume
    values = draw(int64_columns(n))
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    floats = draw(st.lists(st.floats(allow_nan=True), min_size=n,
                           max_size=n))
    chunk = make_dense_chunk(schema, box, {"v": values, "f": floats}, valid)
    qlo = tuple(draw(st.integers(0, e - 1)) for e in extents)
    qhi = tuple(draw(st.integers(l, e - 1)) for l, e in zip(qlo, extents))
    return schema, chunk, Box(qlo, qhi)


def as_version_2(data: bytes, n_dims: int, n_attrs: int) -> bytes:
    """A dense chunk file of this format rewritten in format version 2: the
    same fields, with the bitmap after its length, then the cell count, then
    each column's head in front of its payload."""
    p = 10 + 16 * n_dims + 17 * n_attrs
    blen = int.from_bytes(data[p:p + 8], "little")
    heads = data[p + 16:p + 16 + COLUMN_HEAD * n_attrs]
    pos = p + 16 + len(heads) + blen
    out = [data[:4], (2).to_bytes(2, "little"), data[6:p + 8],
           data[pos - blen:pos], data[p + 8:p + 16]]
    for j in range(n_attrs):
        head = heads[COLUMN_HEAD * j:COLUMN_HEAD * (j + 1)]
        plen = int.from_bytes(head[9:], "little")
        out += [head, data[pos:pos + plen]]
        pos += plen
    return b"".join(out)


class TestFrameCodec:
    """Every int64 column is stored as value - lo at the narrowest width
    over all its stored cells, and read back exactly."""

    @settings(max_examples=80, deadline=None)
    @given(case=coded_dense_cases())
    def test_dense_round_trip(self, case):
        schema, chunk, query = case
        n, ndim = chunk.box.volume, chunk.box.ndim
        width = narrowest_width(chunk.columns["v"])
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.chk")
            nbytes = write_chunk(chunk, schema, path)
            full = read_chunk(path, schema)
            band = read_chunk(path, schema, box=query)
        assert nbytes == 10 + 16 * ndim + 17 * 2 + 8 + (n + 7) // 8 + 8 + \
            (COLUMN_HEAD + n * width) + (COLUMN_HEAD + n * 8)
        assert full.columns["v"].dtype == np.int64
        assert np.array_equal(full.columns["v"], chunk.columns["v"])
        assert np.array_equal(full.columns["f"], chunk.columns["f"],
                              equal_nan=True)
        assert np.array_equal(full.validity, chunk.validity)
        assert full.zone_meta == chunk.zone_meta
        # The band's cells, taken from the stored grids.
        sl = tuple(slice(l, h + 1) for l, h in band.box.ranges())
        for a in ("v", "f"):
            want = chunk.columns[a].reshape(chunk.box.extents)[sl].ravel()
            assert np.array_equal(band.columns[a], want, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12))
    def test_sparse_round_trip(self, data, n):
        schema = ArraySchema("s", (DimensionSpec("x", INT64_MIN, INT64_MAX),),
                             (AttributeSpec("v", "int64"),), "sparse")
        xs = data.draw(int64_columns(n))
        vs = data.draw(int64_columns(n))
        chunk = make_sparse_chunk(schema, schema.box, {"x": xs}, {"v": vs})
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.chk")
            nbytes = write_chunk(chunk, schema, path)
            back = read_chunk(path, schema)
        assert nbytes == 10 + 16 + 17 + 8 + \
            (COLUMN_HEAD + n * narrowest_width(xs)) + \
            (COLUMN_HEAD + n * narrowest_width(vs))
        assert np.array_equal(back.dim_columns["x"], xs)
        assert np.array_equal(back.columns["v"], vs)

    def test_extremes_single_value_and_invalid_cells(self, tmp_path):
        schema = ArraySchema("c", (DimensionSpec("x", 0, 3),),
                             (AttributeSpec("v", "int64"),), "dense")
        path = str(tmp_path / "c.chk")
        # Header, the one-byte bitmap, cell count and the column's head.
        head = 10 + 16 + 17 + 8 + 1 + 8 + COLUMN_HEAD
        cases = [([7, 7, 7, 7], [True] * 4, 1),
                 ([-1, 254, 0, 0], [True] * 4, 1),
                 ([-1, 255, 0, 0], [True] * 4, 2),
                 ([9, 2**16 + 8, 9, 9], [True] * 4, 2),
                 ([9, 2**16 + 9, 9, 9], [True] * 4, 4),
                 ([0, 2**32 - 1, 0, 0], [True] * 4, 4),
                 ([0, 2**32, 0, 0], [True] * 4, 8),
                 # Invalid cells outside the zone (5, 6) widen the frame.
                 ([5, INT64_MIN, 6, INT64_MAX], [True, False, True, False],
                  8),
                 ([5, -1000, 6, 300], [True, False, True, False], 2)]
        for values, valid, width in cases:
            chunk = make_dense_chunk(schema, schema.box, {"v": values},
                                     valid)
            assert write_chunk(chunk, schema, path) == head + 4 * width
            back = read_chunk(path, schema)
            assert back.columns["v"].tolist() == values
            assert back.zone_meta["v"] == chunk.zone_meta["v"]
            one = read_chunk(path, schema, box=Box((3,), (3,)))
            assert one.columns["v"].tolist() == values[3:]
            assert one.bytes_read == head + width

    def test_version_1_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), schema, str(path))
        data = bytearray(path.read_bytes())
        assert data[4:6] == (3).to_bytes(2, "little")
        data[4:6] = (1).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="format version 1"):
            read_chunk(str(path), schema)

    def test_version_2_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), schema, str(path))
        data = path.read_bytes()
        old = as_version_2(data, 2, 2)
        assert len(old) == len(data) and old != data
        path.write_bytes(old)
        with pytest.raises(FormatError, match="format version 2"):
            read_chunk(str(path), schema)

    def test_writes_reach_the_meter(self, rng, tmp_path):
        schema = dense_schema()
        with metered() as meter:
            sizes = [write_chunk(random_dense_chunk(rng), schema,
                                 str(tmp_path / f"{i}.chk"))
                     for i in range(3)]
        assert meter.bytes_written == sum(sizes) == sum(
            (tmp_path / f"{i}.chk").stat().st_size for i in range(3))
        assert meter.bytes_read == meter.chunks_read == 0


def band_of(box: Box, inter: Box):
    """Oracle: the first cell and the cell count of the band that a read of
    ``inter`` fetches from a dense chunk of ``box``: the cells that match
    ``inter`` on every dimension up to and including the first where it
    spans more than one value, and any value after it."""
    grid = np.indices(box.extents).reshape(box.ndim, -1).T + box.lo
    keep = np.ones(len(grid), dtype=bool)
    for d, (lo, hi) in enumerate(inter.ranges()):
        keep &= (grid[:, d] >= lo) & (grid[:, d] <= hi)
        if lo < hi:
            break
    (cells,) = np.nonzero(keep)
    assert cells[-1] - cells[0] + 1 == len(cells)
    return int(cells[0]), len(cells)


@st.composite
def float_columns(draw, n):
    """n float64 values with NaN and infinities, or only NaN."""
    if draw(st.booleans()):
        return np.full(n, np.nan)
    return np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)),
                    dtype=np.float64)


@st.composite
def stacked_cases(draw):
    """A dense or sparse chunk of up to 6 attributes, int64 ones of mixed
    stored widths and float64 ones, a query box, and a ``columns`` list."""
    layout = draw(st.sampled_from(["dense", "sparse"]))
    kinds = draw(st.lists(st.sampled_from(["int64", "float64"]), min_size=1,
                          max_size=6))
    attrs = tuple(AttributeSpec(f"a{i}", k) for i, k in enumerate(kinds))
    ndim = draw(st.integers(1, 3))
    if layout == "dense":
        lo = [draw(st.integers(-4, 4)) for _ in range(ndim)]
        hi = [l + draw(st.integers(0, 4)) for l in lo]
        dims = tuple(DimensionSpec(f"d{i}", l, h)
                     for i, (l, h) in enumerate(zip(lo, hi)))
    else:
        dims = tuple(DimensionSpec(f"d{i}", INT64_MIN, INT64_MAX)
                     for i in range(ndim))
    schema = ArraySchema("p", dims, attrs, layout)
    box = schema.box
    n = box.volume if layout == "dense" else draw(st.integers(1, 10))
    values = {a.name: draw(int64_columns(n)) if a.kind == "int64"
              else draw(float_columns(n)) for a in attrs}
    if layout == "dense":
        valid = draw(st.one_of(st.just([False] * n), st.just([True] * n),
                               st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
        chunk = make_dense_chunk(schema, box, values, valid)
        qlo, qhi = [], []
        for l, h in box.ranges():
            p = draw(st.integers(l, h))
            qlo.append(p - draw(st.integers(0, 3)))
            qhi.append(p + draw(st.integers(0, 3)))
        query = draw(st.one_of(st.none(), st.just(Box(tuple(qlo),
                                                      tuple(qhi)))))
    else:
        # Coordinates near the query box too, so that it keeps some cells.
        near = st.lists(st.integers(-3, 8), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64))
        coords = {d.name: draw(st.one_of(int64_columns(n), near))
                  for d in dims}
        chunk = make_sparse_chunk(schema, box, coords, values)
        query = draw(st.one_of(st.none(), st.just(Box((0,) * ndim,
                                                      (5,) * ndim))))
    names = list(schema.dim_names + schema.attr_names)
    columns = draw(st.one_of(st.none(), st.lists(st.sampled_from(names),
                                                 unique=True)))
    return schema, chunk, query, columns


class TestStackedRead:
    """A read returns what clipping the written chunk through
    ``make_dense_chunk``/``make_sparse_chunk`` gives, and reads exactly the
    head, the bitmap slice and the bands of the wanted columns."""

    @settings(max_examples=150, deadline=None)
    @given(case=stacked_cases())
    def test_matches_oracle(self, case):
        schema, chunk, query, columns = case
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.chk")
            write_chunk(chunk, schema, path)
            got = read_chunk(path, schema, columns=columns, box=query)
        attrs = [a for a in schema.attr_names
                 if columns is None or a in columns]
        width = {name: 8 if col.dtype == np.float64 else narrowest_width(col)
                 for name, col in {**(chunk.dim_columns or {}),
                                   **chunk.columns}.items()}
        n_stored = len(schema.attrs)
        if chunk.layout == "dense":
            inter = chunk.box if query is None else \
                box_intersect(chunk.box, query)
            sl = tuple(slice(l - b, h - b + 1)
                       for l, h, b in zip(inter.lo, inter.hi, chunk.box.lo))
            grid = chunk.box.extents
            want = make_dense_chunk(
                schema, inter,
                {a: chunk.columns[a].reshape(grid)[sl].ravel()
                 for a in schema.attr_names},
                chunk.validity.reshape(grid)[sl])
            assert np.array_equal(got.validity, want.validity)
            assert got.dim_columns is None
            start, m = band_of(chunk.box, inter)
            body = (start + m - 1) // 8 - start // 8 + 1 + \
                sum(m * width[a] for a in attrs)
            head = 8
        else:
            inter = chunk.box if query is None else \
                box_intersect(chunk.box, query)
            keep = np.ones(chunk.cell_count, dtype=bool)
            for d, (lo, hi) in zip(schema.dim_names, inter.ranges()):
                keep &= (chunk.dim_columns[d] >= lo) & \
                    (chunk.dim_columns[d] <= hi)
            want = make_sparse_chunk(
                schema, inter,
                {d: col[keep] for d, col in chunk.dim_columns.items()},
                {a: col[keep] for a, col in chunk.columns.items()})
            assert list(got.dim_columns) == list(schema.dim_names)
            for name, col in got.dim_columns.items():
                assert col.dtype == np.int64
                assert np.array_equal(col, want.dim_columns[name])
            n_stored += len(schema.dims)
            body = sum(chunk.cell_count * width[c]
                       for c in list(schema.dim_names) + attrs)
            head = 0
        assert got.box == want.box
        assert list(got.columns) == attrs
        for a in attrs:
            col = got.columns[a]
            assert col.dtype == want.columns[a].dtype
            assert col.flags.c_contiguous
            assert np.array_equal(col, want.columns[a], equal_nan=True)
        assert set(got.zone_meta) == set(schema.dim_names) | set(attrs)
        for name, zone in got.zone_meta.items():
            assert zone == want.zone_meta[name]
            assert [type(v) for v in zone] == \
                [type(v) for v in want.zone_meta[name]]
        head += 10 + 16 * len(schema.dims) + 17 * len(schema.attrs) + 8 + \
            COLUMN_HEAD * n_stored
        assert got.bytes_read == head + body


@st.composite
def stored_cases(draw):
    """A dense or sparse array of up to 3 dimensions as ``chunk_array``
    takes it, a chunk shape, a query box inside, straddling or outside its
    domain, a ``columns`` list and a predicate."""
    density = draw(st.sampled_from(["dense", "sparse"]))
    ndim = draw(st.integers(1, 3))
    dims = tuple(DimensionSpec(f"d{i}", lo, lo + draw(st.integers(0, 7)))
                 for i, lo in enumerate(draw(st.lists(
                     st.integers(-4, 4), min_size=ndim, max_size=ndim))))
    schema = ArraySchema("r", dims, (AttributeSpec("a0", "int64"),
                                     AttributeSpec("a1", "float64")),
                         density)
    extents = schema.box.extents
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if density == "dense":
        n = schema.box.volume
        data = {"__valid__": rng.random(n) < draw(st.sampled_from(
            [0.0, 0.5, 1.0]))}
    else:
        n = draw(st.integers(0, schema.box.volume))
        flat = rng.choice(schema.box.volume, n, replace=False)
        data = {d.name: c + d.lo
                for d, c in zip(dims, np.unravel_index(flat, extents))}
    data["a0"] = rng.integers(-20, 21, n)
    data["a1"] = np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n))
    shape = tuple(draw(st.integers(1, 4)) for _ in dims)
    lo = tuple(draw(st.integers(d.lo - 4, d.hi + 4)) for d in dims)
    query = Box(lo, tuple(l + draw(st.integers(0, 8)) for l in lo))
    columns = draw(st.sampled_from([None, [], ["a0"], ["a1", "a0"]]))
    predicate = draw(st.one_of(st.none(), st.tuples(
        st.integers(-25, 20), st.integers(0, 10)).map(
        lambda r: {"a0": (r[0], r[0] + r[1])})))
    return schema, data, shape, query, columns, predicate


class TestReboxStoredOracle:
    """``rebox_stored`` equals ``rebox`` over an in-memory copy of the
    stored array, and returns the chunks its reads returned."""

    @settings(max_examples=150, deadline=None)
    @given(case=stored_cases())
    def test_matches_rebox_in_memory(self, case):
        schema, data, shape, query, columns, predicate = case
        arr = Array(schema, chunk_array(schema, data, shape))
        with tempfile.TemporaryDirectory() as d:
            cat = Catalog(d)
            cat.create_array(schema)
            cat.add_chunks("r", arr.chunks)
            reads, read = [], cat.read

            def recording(*args, **kwargs):
                reads.append(read(*args, **kwargs))
                return reads[-1]

            cat.read = recording
            got = rebox_stored(cat, "r", query, columns=columns,
                               predicate=predicate)
        # The oracle: the chunks whose zones meet the predicate, holding
        # the wanted attributes, clipped by ``rebox``.
        names = [a for a in schema.attr_names
                 if columns is None or a in columns]
        kept = []
        for c in arr.chunks:
            if any(c.zone_meta[a][0] > hi or c.zone_meta[a][1] < lo
                   for a, (lo, hi) in (predicate or {}).items()):
                continue
            kept.append(Chunk(
                c.chunk_id, c.box, c.layout,
                {a: c.columns[a] for a in names}, validity=c.validity,
                dim_columns=c.dim_columns,
                zone_meta={k: z for k, z in c.zone_meta.items()
                           if k in schema.dim_names or k in names}))
        want = rebox(Array(schema.with_attrs(
            a for a in schema.attrs if a.name in names), kept), query)
        assert got.schema == want.schema
        assert [c.box for c in got.chunks] == [c.box for c in want.chunks]
        for g, w in zip(got.chunks, want.chunks):
            assert g.chunk_id == w.chunk_id
            if schema.density == "dense":
                assert np.array_equal(g.validity, w.validity)
            else:
                for dim in schema.dim_names:
                    assert np.array_equal(g.dim_columns[dim],
                                          w.dim_columns[dim])
            assert list(g.columns) == names
            for a in names:
                assert np.array_equal(g.columns[a], w.columns[a],
                                      equal_nan=True)
            assert g.zone_meta == w.zone_meta
        # Each chunk of the result is the one its read returned, so none
        # was clipped twice.
        returned = [c for c in reads if c.cell_count]
        assert len(got.chunks) == len(returned)
        assert all(g is r for g, r in zip(got.chunks, returned))


def mixed_schema(n_attrs: int, density: str) -> ArraySchema:
    """Attributes a0, a1, ...: int64 ones, then a float64 one every third."""
    return ArraySchema("m", (DimensionSpec("x", 0, 9),
                             DimensionSpec("y", 0, 7)),
                       tuple(AttributeSpec(f"a{i}", "float64" if i % 3 == 2
                                           else "int64")
                             for i in range(n_attrs)), density)


def mixed_chunk(rng, schema):
    """A chunk of ``mixed_schema``; int64 columns spread over widths 1-8."""
    box = schema.box
    n = box.volume if schema.density == "dense" else 12
    values = {a.name: rng.normal(size=n) if a.kind == "float64"
              else rng.integers(0, 2 ** (8 * 2 ** (i % 4) - 2), n)
              for i, a in enumerate(schema.attrs)}
    if schema.density == "dense":
        return make_dense_chunk(schema, box, values, rng.random(n) < 0.8)
    return make_sparse_chunk(schema, box, {"x": rng.integers(0, 10, n),
                                           "y": rng.integers(0, 8, n)},
                             values)


class TestReadCalls:
    @pytest.mark.parametrize("density", ["dense", "sparse"])
    @pytest.mark.parametrize("n_attrs", [1, 4, 11])
    def test_one_read_per_part(self, rng, tmp_path, monkeypatch, density,
                               n_attrs):
        """One head read at offset 0, one bitmap read for a dense chunk and
        one read per wanted stored column, whatever the attribute count."""
        schema = mixed_schema(n_attrs, density)
        path = str(tmp_path / "c.chk")
        write_chunk(mixed_chunk(rng, schema), schema, path)
        offsets, real = [], os.preadv

        def counting(fd, buffers, offset):
            offsets.append(offset)
            return real(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", counting)
        names = schema.attr_names
        for columns in (None, [], names[:1], names[-2:], ["x"]):
            for box in (None, Box((2, 3), (4, 5)), Box((3, 0), (3, 7))):
                offsets.clear()
                read_chunk(path, schema, columns=columns, box=box)
                wanted = len(names) if columns is None else \
                    len(set(columns) & set(names))
                if density == "dense":
                    wanted += 1  # the bitmap
                else:
                    wanted += 2  # the coordinates
                assert offsets[0] == 0
                assert len(offsets) == 1 + wanted

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd to count descriptors")
    def test_failing_reads_leak_no_descriptor(self, rng, tmp_path):
        schema = dense_schema()
        good = tmp_path / "good.chk"
        write_chunk(random_dense_chunk(rng), schema, str(good))
        data = good.read_bytes()
        damaged = {"half.chk": data[:len(data) // 2],
                   "head.chk": data[:DENSE_HEAD - 1],
                   "magic.chk": b"XXXX" + data[4:],
                   "v2.chk": as_version_2(data, 2, 2)}
        for name, content in damaged.items():
            (tmp_path / name).write_bytes(content)
        other = mixed_schema(2, "dense")
        cases = [(str(tmp_path / name), schema, None) for name in damaged]
        # A directory opens but fails its first read.
        cases += [(str(good), other, None), (str(tmp_path), schema, None),
                  (str(good), schema, Box((10, 0), (12, 7)))]
        before = len(os.listdir("/proc/self/fd"))
        for i in range(100):
            path, s, box = cases[i % len(cases)]
            with pytest.raises((FormatError, DomainError)):
                read_chunk(path, s, box=box)
        assert len(os.listdir("/proc/self/fd")) == before


class TestPlacement:
    def test_round_robin_balance(self, rng, tmp_path):
        """Chunk ids continue across ``add_chunks`` calls."""
        cat = Catalog(tmp_path)
        schema = dense_schema()
        cat.create_array(schema)
        first = cat.add_chunks("d", [random_dense_chunk(rng) for _ in range(5)])
        second = cat.add_chunks("d", [random_dense_chunk(rng) for _ in range(7)])
        refs = first + second
        assert [r.chunk_id for r in refs] == list(range(12))


class TestCatalog:
    def _populate(self, catalog, rng, n_chunks=6):
        schema = sparse_schema()
        catalog.create_array(schema)
        chunks = []
        for i in range(n_chunks):
            x0 = i * 15
            chunks.append(make_sparse_chunk(
                schema, Box((x0, 0), (x0 + 14, 99)),
                {"x": rng.integers(x0, x0 + 15, 10),
                 "y": rng.integers(0, 100, 10)},
                {"v": rng.integers(i * 10, i * 10 + 5, 10)}))
        catalog.add_chunks("s", chunks)
        return schema

    def test_save_load_round_trip(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        cat2 = Catalog(tmp_path)
        cat2.load()
        e1, e2 = cat.entry("s"), cat2.entry("s")
        assert e1.schema == e2.schema
        assert len(e1.chunk_index) == len(e2.chunk_index)
        for r1, r2 in zip(e1.chunk_index, e2.chunk_index):
            assert (r1.chunk_id, r1.box) == (r2.chunk_id, r2.box)
            assert r1.zone_meta == r2.zone_meta
        c1 = cat.read("s", 2)
        c2 = cat2.read("s", 2)
        assert np.array_equal(c1.columns["v"], c2.columns["v"])

    def test_manifest_with_worker_column_rejected(self, rng, tmp_path):
        """A chunk line with a token between the chunk id and the file
        name, as catalogs with version-1 chunk files held, raises
        ``FormatError`` naming the manifest and the line."""
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        manifest = tmp_path / "s" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, 1)
                      if line.startswith("chunk "))
        tok = lines[lineno - 1].split(" ")
        tok.insert(2, "0")
        lines[lineno - 1] = " ".join(tok)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"manifest.txt:{lineno}:"):
            Catalog(tmp_path).load()

    def test_manifest_zones_typed_from_schema(self, tmp_path):
        schema = ArraySchema("f", (DimensionSpec("x", 0, 9),),
                             (AttributeSpec("a", "float64"),
                              AttributeSpec("b", "int64")), "dense")
        cat = Catalog(tmp_path)
        cat.create_array(schema)
        cat.add_chunks("f", chunk_array(
            schema, {"a": np.arange(10.0), "b": np.arange(10)},
            (5,)))
        cat.save()
        manifest = tmp_path / "f" / "manifest.txt"
        text = manifest.read_text()
        assert "a=0.0:4.0" in text
        cat2 = Catalog(tmp_path)
        cat2.load()
        first, second = (r.zone_meta for r in cat2.entry("f").chunk_index)
        assert first["a"] == (0.0, 4.0)
        assert second["a"] == (5.0, 9.0)
        assert type(second["a"][0]) is float
        assert first["b"] == (0, 4) and type(first["b"][0]) is int
        assert first["x"] == (0, 4) and type(first["x"][0]) is int
        assert cat2.prune("f", predicate={"a": (1.0, 2.0)}) == [0]
        # A NaN bound, as catalogs with version-1 chunk files held for a
        # chunk holding a NaN, names the manifest and the line.
        lineno = next(i for i, line in enumerate(text.splitlines(), 1)
                      if "a=0.0:4.0" in line)
        for bad in ("a=nan:nan", "a=0.0:nan"):
            manifest.write_text(text.replace("a=0.0:4.0", bad))
            with pytest.raises(FormatError, match=f"manifest.txt:{lineno}:"):
                Catalog(tmp_path).load()
        manifest.write_text(text.replace("b=0:4", "b=0:x"))
        with pytest.raises(FormatError, match=f"manifest.txt:{lineno}:"):
            Catalog(tmp_path).load()

    def test_failed_manifest_write_keeps_the_old_one(self, rng, tmp_path,
                                                    monkeypatch):
        """A save that fails partway through writing a manifest leaves the
        catalog loadable in its state before that save."""
        cat = Catalog(tmp_path)
        schema = self._populate(cat, rng)
        cat.save()
        cat.add_chunks("s", [make_sparse_chunk(
            schema, Box((90, 0), (99, 99)), {"x": [91], "y": [5]},
            {"v": [7]})])
        real = Path.write_text

        def half_then_fail(self, text, *args, **kwargs):
            real(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        with pytest.raises(OSError):
            cat.save()
        monkeypatch.undo()
        back = Catalog(tmp_path)
        back.load()
        assert back.entry("s").schema == schema
        assert back.entry("s").chunk_index == cat.entry("s").chunk_index[:6]
        assert sorted(os.listdir(tmp_path / "s")) == sorted(
            [f"{i}.chk" for i in range(7)] + ["manifest.txt"])

    def test_prune_matches_exhaustive_oracle(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        entry = cat.entry("s")
        query_rng = np.random.default_rng(1)
        for _ in range(100):
            lo = query_rng.integers(0, 90, 2)
            hi = lo + query_rng.integers(0, 40, 2)
            qbox = Box(tuple(lo), tuple(hi))
            got = set(cat.prune("s", qbox))
            # Oracle: exhaustive intersection against per-chunk cell
            # bounding boxes computed from the data itself.
            expected = set()
            for ref in entry.chunk_index:
                chunk = cat.read("s", ref.chunk_id)
                xs, ys = chunk.dim_columns["x"], chunk.dim_columns["y"]
                if len(xs) == 0:
                    continue
                if xs.min() <= hi[0] and xs.max() >= lo[0] and \
                        ys.min() <= hi[1] and ys.max() >= lo[1]:
                    expected.add(ref.chunk_id)
            assert got == expected

    def test_prune_by_attribute_zone(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        # v values in chunk i lie in [10i, 10i + 4].
        assert cat.prune("s", predicate={"v": (20, 24)}) == [2]
        assert cat.prune("s", predicate={"v": (1000, 2000)}) == []

    def test_io_accounting(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        with metered() as meter:
            c0 = cat.read("s", 0)
            c1 = cat.read("s", 1)
        assert meter.chunks_read == 2
        assert meter.bytes_read == c0.bytes_read + c1.bytes_read > 0

    def test_unknown_array_and_chunk(self, tmp_path):
        cat = Catalog(tmp_path)
        with pytest.raises(CatalogError):
            cat.entry("nope")
        with pytest.raises(CatalogError):
            cat.read("nope", 0)

    def test_chunk_ids_outside_the_index_rejected(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        assert cat.entry("s").ref(5).chunk_id == 5
        for cid in (-1, 6):
            with pytest.raises(CatalogError):
                cat.read("s", cid)

    def test_manifest_with_ids_out_of_order_rejected(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        manifest = tmp_path / "s" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        chunk_lines = [i for i, line in enumerate(lines)
                       if line.startswith("chunk ")]
        first, second = chunk_lines[:2]
        lines[first], lines[second] = lines[second], lines[first]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            Catalog(tmp_path).load()

    def _damage_manifest(self, rng, tmp_path, edit):
        """Save a catalog, rewrite one manifest line with ``edit``, and
        return the line's number."""
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        manifest = tmp_path / "s" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        for i, line in enumerate(lines):
            damaged = edit(line)
            if damaged != line:
                lines[i] = damaged
                break
        manifest.write_text("\n".join(lines) + "\n")
        return i + 1

    def test_manifest_chunk_line_without_box_rejected(self, rng, tmp_path):
        lineno = self._damage_manifest(
            rng, tmp_path, lambda line: " ".join(
                t for t in line.split() if not t.startswith("box=")))
        with pytest.raises(FormatError, match=f"manifest.txt:{lineno}:"):
            Catalog(tmp_path).load()

    def test_manifest_dim_with_bad_bound_rejected(self, rng, tmp_path):
        lineno = self._damage_manifest(
            rng, tmp_path, lambda line: "dim x 0 nine"
            if line.startswith("dim x ") else line)
        with pytest.raises(FormatError, match=f"manifest.txt:{lineno}:"):
            Catalog(tmp_path).load()

    def test_manifest_without_array_line_rejected(self, rng, tmp_path):
        self._damage_manifest(rng, tmp_path, lambda line: ""
                              if line.startswith("array ") else line)
        with pytest.raises(FormatError, match="no array line"):
            Catalog(tmp_path).load()

    def test_unreadable_manifest_rejected(self, tmp_path):
        (tmp_path / "s" / "manifest.txt").mkdir(parents=True)
        with pytest.raises(FormatError, match="cannot read manifest"):
            Catalog(tmp_path).load()

    def test_duplicate_create_rejected(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        with pytest.raises(CatalogError):
            cat.create_array(sparse_schema())

    def test_drop_array_removes_files(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        locators = [r.locator for r in cat.entry("s").chunk_index]
        cat.drop_array("s")
        import os
        assert all(not os.path.exists(p) for p in locators)
        cat.drop_array("s")  # idempotent
