"""On-disk chunk format, regular chunking, zone-map pruning, and the
catalog.

One file per chunk under ``<data_dir>/<array>/<chunk_id>.chk``; each array
also has a text manifest listing its schema and chunk index. Reads fetch
only the requested column blocks, and for a dense chunk read with a query
box only the band of rows that the box covers, plus the matching bytes of
the validity bitmap. Every read counts its chunk and bytes into the
enclosing ``metered()`` measurement, so I/O claims are testable.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CatalogError,
    ConfigError,
    DomainError,
    FormatError,
    SchemaError,
)
from .meter import record
from .model import (
    DENSE,
    SPARSE,
    ArraySchema,
    AttributeSpec,
    Box,
    Chunk,
    DimensionSpec,
    KIND_FLOAT64,
    KIND_INT64,
    box_intersect,
    make_dense_chunk,
    make_sparse_chunk,
)

MAGIC = b"AQLC"
FORMAT_VERSION = 1

_LAYOUT_CODES = {DENSE: 0, SPARSE: 1}
_LAYOUT_NAMES = {v: k for k, v in _LAYOUT_CODES.items()}
_KIND_CODES = {KIND_INT64: 0, KIND_FLOAT64: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------

def tile_box(box: Box, shape) -> list:
    """Tile a box with regular chunks of the given shape, clipped at the
    upper edges. Tiles are ordered row-major over the tile grid."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != box.ndim:
        raise ConfigError("chunk shape dimensionality mismatch")
    if any(s <= 0 for s in shape):
        raise ConfigError(f"chunk shape {shape} has a zero extent")
    grids = [range(lo, hi + 1, s) for lo, hi, s in zip(box.lo, box.hi, shape)]
    tiles = []

    def rec(d, lo_acc):
        if d == box.ndim:
            lo = tuple(lo_acc)
            hi = tuple(min(l + s - 1, h) for l, s, h in zip(lo, shape, box.hi))
            tiles.append(Box(lo, hi))
            return
        for start in grids[d]:
            rec(d + 1, lo_acc + [start])

    rec(0, [])
    return tiles


def chunk_array(schema: ArraySchema, data: dict, chunk_shape,
                box: Box | None = None) -> list:
    """Partition array data into regular chunks of ``chunk_shape`` (see
    ``tile_box``).

    Dense arrays: ``data`` holds one row-major column per attribute over
    ``box`` plus a ``"__valid__"`` bitmap. Sparse arrays: ``data`` holds
    one column per dimension and attribute; tiles without cells are
    dropped.
    """
    box = box if box is not None else schema.box
    tiles = tile_box(box, chunk_shape)
    if schema.density == DENSE:
        return _chunk_dense(schema, data, tiles, box)
    return _chunk_sparse(schema, data, tiles)


def _chunk_dense(schema, data, tiles, box):
    extents = box.extents
    validity = np.asarray(data.get("__valid__", np.ones(box.volume, bool)),
                          dtype=bool).reshape(extents)
    grids = {a.name: np.asarray(data[a.name], dtype=a.dtype).reshape(extents)
             for a in schema.attrs}
    chunks = []
    for i, tile in enumerate(tiles):
        sl = tuple(slice(l - bl, h - bl + 1)
                   for l, h, bl in zip(tile.lo, tile.hi, box.lo))
        values = {name: g[sl].ravel() for name, g in grids.items()}
        chunks.append(make_dense_chunk(schema, tile, values, validity[sl].ravel(),
                                       chunk_id=i))
    return chunks


def _chunk_sparse(schema, data, tiles):
    coords = [np.asarray(data[d.name], dtype=np.int64) for d in schema.dims]
    n = len(coords[0])
    chunks = []
    for tile in tiles:
        mask = np.ones(n, dtype=bool)
        for c, lo, hi in zip(coords, tile.lo, tile.hi):
            mask &= (c >= lo) & (c <= hi)
        if not mask.any():
            continue
        dims = {d.name: c[mask] for d, c in zip(schema.dims, coords)}
        attrs = {a.name: np.asarray(data[a.name], dtype=a.dtype)[mask]
                 for a in schema.attrs}
        chunks.append(make_sparse_chunk(schema, tile, dims, attrs,
                                        chunk_id=len(chunks)))
    return chunks


# ---------------------------------------------------------------------------
# Chunk file format
# ---------------------------------------------------------------------------

def _pack_zone(kind, zone):
    fmt = "<q" if kind == KIND_INT64 else "<d"
    return struct.pack(fmt, zone[0]) + struct.pack(fmt, zone[1])


def _unpack_zone(kind, buf, off):
    fmt = "<q" if kind == KIND_INT64 else "<d"
    lo = struct.unpack_from(fmt, buf, off)[0]
    hi = struct.unpack_from(fmt, buf, off + 8)[0]
    return (lo, hi), off + 16


def write_chunk(chunk: Chunk, schema: ArraySchema, locator) -> int:
    """Serialize one chunk to disk; returns bytes written."""
    parts = [MAGIC,
             struct.pack("<HBBH", FORMAT_VERSION, _LAYOUT_CODES[chunk.layout],
                         len(schema.dims), len(schema.attrs))]
    for lo, hi in chunk.box.ranges():
        parts.append(struct.pack("<qq", lo, hi))
    for attr in schema.attrs:
        zone = chunk.zone_meta[attr.name]
        parts.append(struct.pack("<B", _KIND_CODES[attr.kind]))
        parts.append(_pack_zone(attr.kind, zone))
    if chunk.layout == DENSE:
        bitmap = np.packbits(chunk.validity).tobytes()
        parts.append(struct.pack("<Q", len(bitmap)))
        parts.append(bitmap)
    parts.append(struct.pack("<Q", chunk.cell_count))
    blocks = []
    if chunk.layout == SPARSE:
        blocks.extend(chunk.dim_columns[d.name] for d in schema.dims)
    blocks.extend(chunk.columns[a.name] for a in schema.attrs)
    for col in blocks:
        payload = np.ascontiguousarray(col).tobytes()
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    data = b"".join(parts)
    try:
        with open(locator, "wb") as f:
            f.write(data)
    except OSError as exc:
        raise FormatError(f"cannot write chunk file {locator}: {exc}") from exc
    return len(data)


class _CountingFile:
    """File wrapper that tallies the bytes actually read."""

    def __init__(self, f):
        self._f = f
        self.bytes_read = 0

    def read(self, n):
        buf = self._f.read(n)
        self.bytes_read += len(buf)
        return buf

    def seek(self, off, whence=0):
        self._f.seek(off, whence)


def read_chunk(locator, schema: ArraySchema, columns=None, chunk_id: int = 0,
               box: Box | None = None) -> Chunk:
    """Read a chunk file, materializing only the requested column blocks.

    ``columns`` may name attributes and (for dense chunks) dimensions;
    suppressed dimension columns cost zero extra bytes. ``None`` reads
    everything.

    ``box`` is the caller's query box. A dense chunk stores each column in
    row-major order over its box, so the cells of ``box`` intersected with
    the chunk box lie in one contiguous run: the band whose ranges are the
    query's up to and including the first dimension where the query spans
    more than one value, and the chunk's after it. Only that band of each
    wanted column, and the bitmap bytes that hold its validity bits, are
    read; the returned chunk covers the band (its attribute zones are the
    stored chunk's, which bound the band's cells), and the caller clips it
    to ``box``. A box that misses the chunk raises ``DomainError``. Sparse
    chunks ignore ``box``, because their cells need their coordinates.
    ``None`` reads the whole chunk.

    ``bytes_read`` counts the bytes actually read: the header, the bitmap
    slice, each column's length prefix, and each wanted column's band. The
    read also adds one chunk and those bytes to the current meter.
    """
    if columns is not None:
        known = set(schema.dim_names) | set(schema.attr_names)
        for c in columns:
            if c not in known:
                raise SchemaError(f"unknown column {c!r} for array {schema.name}")
    try:
        raw = open(locator, "rb")
    except OSError as exc:
        raise FormatError(f"cannot open chunk file {locator}: {exc}") from exc
    with raw:
        f = _CountingFile(raw)
        chunk = _read_chunk_body(f, schema, columns, chunk_id, locator, box)
    chunk.bytes_read = f.bytes_read
    record(chunks_read=1, bytes_read=f.bytes_read)
    return chunk


def _read_exact(f, n, what, locator):
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated chunk file {locator}: short read in {what}")
    return buf


def _band(chunk_box: Box, query_box: Box):
    """The band of ``chunk_box`` that holds every cell of ``query_box``
    inside it, and the row-major offset of the band's first cell."""
    inter = box_intersect(chunk_box, query_box)
    if inter is None:
        raise DomainError(f"query box {query_box} misses chunk box {chunk_box}")
    ranges = list(chunk_box.ranges())
    for d, (lo, hi) in enumerate(inter.ranges()):
        ranges[d] = (lo, hi)
        if lo < hi:
            break
    band = Box.of(*ranges)
    start = 0
    for c, lo, extent in zip(band.lo, chunk_box.lo, chunk_box.extents):
        start = start * extent + (c - lo)
    return band, start


def _read_chunk_body(f, schema, columns, chunk_id, locator, query_box):
    head = _read_exact(f, 10, "header", locator)
    if head[:4] != MAGIC:
        raise FormatError(f"bad magic in chunk file {locator}")
    version, layout_code, n_dims, n_attrs = struct.unpack_from("<HBBH", head, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version} in {locator}")
    if layout_code not in _LAYOUT_NAMES:
        raise FormatError(f"bad layout flag in {locator}")
    layout = _LAYOUT_NAMES[layout_code]
    if n_dims != len(schema.dims) or n_attrs != len(schema.attrs):
        raise FormatError(
            f"chunk file {locator} dim/attr counts do not match schema "
            f"{schema.name}")
    bounds = _read_exact(f, 16 * n_dims, "box bounds", locator)
    lo, hi = [], []
    for d in range(n_dims):
        l, h = struct.unpack_from("<qq", bounds, 16 * d)
        lo.append(l)
        hi.append(h)
    box = Box(tuple(lo), tuple(hi))
    zones = {}
    zbuf = _read_exact(f, 17 * n_attrs, "zone metadata", locator)
    off = 0
    for attr in schema.attrs:
        kind_code = zbuf[off]
        off += 1
        if _KIND_NAMES.get(kind_code) != attr.kind:
            raise FormatError(
                f"attribute {attr.name!r} kind mismatch in {locator}")
        zones[attr.name], off = _unpack_zone(attr.kind, zbuf, off)
    # Cells [start, start + n) of every stored column are read.
    band, start = box, 0
    validity = None
    if layout == DENSE:
        if query_box is not None:
            band, start = _band(box, query_box)
        n = band.volume
        (blen,) = struct.unpack(
            "<Q", _read_exact(f, 8, "bitmap length", locator))
        if blen != (box.volume + 7) // 8:
            raise FormatError(
                f"validity bitmap in {locator} has {blen} bytes for "
                f"{box.volume} cells")
        first, last = start // 8, (start + n - 1) // 8
        f.seek(first, os.SEEK_CUR)
        bitmap = _read_exact(f, last - first + 1, "validity bitmap", locator)
        f.seek(blen - last - 1, os.SEEK_CUR)
        bit0 = start % 8
        validity = np.unpackbits(
            np.frombuffer(bitmap, dtype=np.uint8))[bit0:bit0 + n].astype(bool)
    (count,) = struct.unpack("<Q", _read_exact(f, 8, "cell count", locator))
    if layout == DENSE and count != box.volume:
        raise FormatError(
            f"chunk file {locator} holds {count} cells for a box of "
            f"{box.volume}")

    if layout == SPARSE:
        n = count
        stored = [(d.name, np.int64) for d in schema.dims]
    else:
        stored = []
    stored += [(a.name, a.dtype) for a in schema.attrs]

    wanted = None if columns is None else set(columns)
    if wanted is not None and layout == SPARSE:
        # Sparse cells are meaningless without their coordinates.
        wanted |= set(schema.dim_names)
    read_cols = {}
    for name, dtype in stored:
        (blen,) = struct.unpack(
            "<Q", _read_exact(f, 8, f"length of column {name!r}", locator))
        if wanted is None or name in wanted:
            size = np.dtype(dtype).itemsize
            if blen != count * size:
                raise FormatError(
                    f"column {name!r} in {locator} has {blen} bytes, "
                    f"expected {count} cells")
            f.seek(start * size, os.SEEK_CUR)
            payload = f.read(n * size)
            if len(payload) != n * size:
                raise FormatError(
                    f"truncated column {name!r} in chunk file {locator}")
            f.seek(blen - (start + n) * size, os.SEEK_CUR)
            read_cols[name] = np.frombuffer(payload, dtype=dtype)
        else:
            f.seek(blen, os.SEEK_CUR)

    dim_columns = None
    if layout == SPARSE:
        dim_columns = {n: read_cols.pop(n) for n in schema.dim_names
                       if n in read_cols}
    attr_cols = {n: read_cols[n] for n in schema.attr_names if n in read_cols}
    meta = dict(zones)
    for i, d in enumerate(schema.dims):
        if layout == DENSE:
            meta[d.name] = (band.lo[i], band.hi[i])
        elif dim_columns and d.name in dim_columns and len(dim_columns[d.name]):
            meta[d.name] = (int(dim_columns[d.name].min()),
                            int(dim_columns[d.name].max()))
        else:
            meta[d.name] = (box.lo[i], box.hi[i])
    return Chunk(chunk_id, band, layout, attr_cols, validity=validity,
                 dim_columns=dim_columns, zone_meta=meta)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass
class ChunkRef:
    chunk_id: int
    box: Box
    zone_meta: dict
    locator: str


@dataclass
class CatalogEntry:
    schema: ArraySchema
    chunk_index: list = field(default_factory=list)  # list[ChunkRef]

    def ref(self, chunk_id: int) -> ChunkRef:
        """Chunk ids are positions in the index (see ``add_chunks``)."""
        if 0 <= chunk_id < len(self.chunk_index):
            return self.chunk_index[chunk_id]
        raise CatalogError(f"array {self.schema.name}: no chunk {chunk_id}")


def prune(entry: CatalogEntry, query_box: Box | None = None,
          predicate: dict | None = None) -> list:
    """Chunk ids whose box intersects the query box and whose attribute
    zones overlap every predicate range. Purely metadata-driven."""
    if query_box is not None and query_box.ndim != len(entry.schema.dims):
        raise SchemaError("query box dimensionality does not match schema")
    checks = []
    if query_box is not None:
        checks += zip(entry.schema.dim_names, query_box.lo, query_box.hi)
    if predicate:
        checks += [(name, lo, hi) for name, (lo, hi) in predicate.items()]
    out = []
    for ref in entry.chunk_index:
        zones = ref.zone_meta
        for name, lo, hi in checks:
            zone = zones.get(name)
            if zone is None or zone[0] > hi or zone[1] < lo:
                break
        else:
            out.append(ref.chunk_id)
    return out


def _parse_zone(text: str, kind: str | None, path) -> tuple:
    """A manifest zone ``lo:hi``, typed by its column's kind. A NaN bound,
    which older catalogs wrote for float chunks holding a NaN, loads as the
    unknown zone (-inf, inf), so pruning keeps the chunk."""
    if kind is None:
        raise FormatError(f"manifest {path} has a zone for an unknown column")
    conv = int if kind == KIND_INT64 else float
    try:
        lo, hi = (conv(v) for v in text.split(":"))
    except ValueError as exc:
        raise FormatError(f"bad zone {text!r} in manifest {path}") from exc
    if lo != lo or hi != hi:
        return (-np.inf, np.inf)
    return (lo, hi)


class Catalog:
    """Directory-backed array catalog: schemas, chunk files and their zone
    maps. Operators deal the chunks they read to workers by list
    position."""

    def __init__(self, data_dir):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.arrays: dict[str, CatalogEntry] = {}

    # -- registration -----------------------------------------------------

    def entry(self, name: str) -> CatalogEntry:
        try:
            return self.arrays[name]
        except KeyError:
            raise CatalogError(f"unknown array {name!r}") from None

    def create_array(self, schema: ArraySchema) -> CatalogEntry:
        if schema.name in self.arrays:
            raise CatalogError(f"array {schema.name!r} already exists")
        entry = CatalogEntry(schema)
        self.arrays[schema.name] = entry
        (self.data_dir / schema.name).mkdir(parents=True, exist_ok=True)
        return entry

    def drop_array(self, name: str):
        entry = self.arrays.pop(name, None)
        if entry is None:
            return
        for ref in entry.chunk_index:
            try:
                os.unlink(ref.locator)
            except OSError:
                pass
        manifest = self.data_dir / name / "manifest.txt"
        if manifest.exists():
            manifest.unlink()

    def add_chunks(self, name: str, chunks) -> list:
        """Write chunks, assign sequential ids, and extend the chunk index.
        Returns the new ChunkRefs."""
        entry = self.entry(name)
        start = len(entry.chunk_index)
        refs = []
        for cid, chunk in enumerate(chunks, start):
            chunk.chunk_id = cid
            locator = str(self.data_dir / name / f"{cid}.chk")
            write_chunk(chunk, entry.schema, locator)
            refs.append(ChunkRef(cid, chunk.box, dict(chunk.zone_meta),
                                 locator))
        entry.chunk_index.extend(refs)
        return refs

    # -- persistence ------------------------------------------------------

    def save(self):
        for name, entry in self.arrays.items():
            self._write_manifest(name, entry)

    def _write_manifest(self, name, entry):
        lines = [f"array {name} density={entry.schema.density}"]
        for d in entry.schema.dims:
            lines.append(f"dim {d.name} {d.lo} {d.hi}")
        for a in entry.schema.attrs:
            lines.append(f"attr {a.name} {a.kind}")
        order = entry.schema.dim_names + entry.schema.attr_names
        for ref in entry.chunk_index:
            boxs = ",".join(f"{l}:{h}" for l, h in ref.box.ranges())
            zones = ";".join(f"{n}={ref.zone_meta[n][0]}:{ref.zone_meta[n][1]}"
                             for n in order if n in ref.zone_meta)
            lines.append(f"chunk {ref.chunk_id} "
                         f"{os.path.basename(ref.locator)} box={boxs} zones={zones}")
        path = self.data_dir / name / "manifest.txt"
        path.write_text("\n".join(lines) + "\n")

    def load(self):
        """Load every array manifest found under the data directory."""
        self.arrays = {}
        for manifest in sorted(self.data_dir.glob("*/manifest.txt")):
            entry = self._read_manifest(manifest)
            self.arrays[entry.schema.name] = entry

    def _read_manifest(self, path: Path):
        """An array's catalog entry; a malformed line raises
        ``FormatError`` naming the file and the line."""
        name = None
        density = DENSE
        dims, attrs, refs = [], [], []
        kinds = {}  # zone name -> kind; dimension zones are int64
        try:
            text = path.read_text()
        except OSError as exc:
            raise FormatError(f"cannot read manifest {path}: {exc}") from exc
        lineno, line = 0, ""
        try:
            for lineno, line in enumerate(text.splitlines(), 1):
                tok = line.split()
                if not tok:
                    continue
                if tok[0] == "array":
                    name = tok[1]
                    density = tok[2].split("=", 1)[1]
                elif tok[0] == "dim":
                    dims.append(DimensionSpec(tok[1], int(tok[2]),
                                              int(tok[3])))
                    kinds[tok[1]] = KIND_INT64
                elif tok[0] == "attr":
                    attrs.append(AttributeSpec(tok[1], tok[2]))
                    kinds[tok[1]] = tok[2]
                elif tok[0] == "chunk":
                    # The id comes first and the file last; older catalogs
                    # hold a worker id between them.
                    pos = [t for t in tok[1:] if "=" not in t]
                    cid, locator = int(pos[0]), str(path.parent / pos[-1])
                    if cid != len(refs):
                        raise FormatError(f"{path}: chunk {cid} where chunk "
                                          f"{len(refs)} was expected")
                    fields = dict(t.split("=", 1) for t in tok[1:]
                                  if "=" in t)
                    ranges = [tuple(int(v) for v in r.split(":"))
                              for r in fields["box"].split(",")]
                    zones = {}
                    for z in fields["zones"].split(";"):
                        if not z:
                            continue
                        zname, zrange = z.split("=", 1)
                        zones[zname] = _parse_zone(zrange, kinds.get(zname),
                                                   path)
                    refs.append(ChunkRef(cid, Box.of(*ranges), zones,
                                         locator))
        except (IndexError, KeyError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed line "
                              f"{line!r}") from exc
        if name is None:
            raise FormatError(f"{path}: no array line")
        schema = ArraySchema(name, tuple(dims), tuple(attrs), density)
        return CatalogEntry(schema, refs)

    # -- access -----------------------------------------------------------

    def read(self, name: str, chunk_id: int, columns=None,
             box: Box | None = None) -> Chunk:
        """One chunk, read through ``read_chunk`` (see there for
        ``columns`` and ``box``)."""
        entry = self.entry(name)
        ref = entry.ref(chunk_id)
        return read_chunk(ref.locator, entry.schema, columns=columns,
                          chunk_id=chunk_id, box=box)

    def prune(self, name: str, query_box=None, predicate=None) -> list:
        return prune(self.entry(name), query_box, predicate)
