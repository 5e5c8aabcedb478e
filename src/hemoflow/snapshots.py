"""Snapshot database for parameter sweeps, and trained-model files.

A sweep writes one directory per parameter point containing little-endian
float64 field files, plus a JSON manifest with lengths and SHA-256
checksums. Interrupted sweeps resume by skipping entries whose files
still match their checksums. Trained reduced models are stored in a
single versioned .npz archive readable without the database.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zipfile

import numpy as np

from .errors import InvalidArgumentError, SchemaError
from .podi import INTERPOLATION_KINDS, PodBasis, RomModel

MANIFEST_SCHEMA = "hemoflow-snapshots/1"
MODEL_SCHEMA = "hemoflow-rom/1"
_FIELD_MAGIC = b"HFFLD1\n"


def write_field(path, values):
    """Binary field file: magic, uint64 length, float64 little-endian data."""
    data = np.ascontiguousarray(values, dtype="<f8")
    if data.ndim != 1:
        raise InvalidArgumentError("field files hold 1-D arrays")
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(struct.pack("<Q", data.size))
        fh.write(data.tobytes())


def read_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(_FIELD_MAGIC))
        if magic != _FIELD_MAGIC:
            raise SchemaError(f"{path}: not a field file")
        head = fh.read(8)
        n = struct.unpack("<Q", head)[0] if len(head) == 8 else None
        # refused before reading: a corrupt length may exceed any buffer
        if n is None or 8 * n > os.fstat(fh.fileno()).st_size - fh.tell():
            raise SchemaError(f"{path}: truncated field file")
        data = np.frombuffer(fh.read(8 * n), dtype="<f8")
    return np.array(data)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


class SnapshotDB:
    """One directory per sweep; manifest-tracked field files.

    ``SnapshotDB(root)`` opens the database at ``root`` and creates it if
    it does not exist; ``SnapshotDB.open(root)`` only opens one."""

    @classmethod
    def open(cls, root):
        """The database at ``root``; a SchemaError, and nothing created,
        when ``root`` holds none."""
        if not os.path.isfile(os.path.join(root, "manifest.json")):
            raise SchemaError(f"{root}: no snapshot database "
                              "(no manifest.json)")
        return cls(root)

    def __init__(self, root):
        self.root = root
        self.manifest_path = os.path.join(root, "manifest.json")
        os.makedirs(root, exist_ok=True)
        if os.path.exists(self.manifest_path):
            try:
                with open(self.manifest_path) as fh:
                    self.manifest = json.load(fh)
            except ValueError as exc:       # not JSON, or not UTF-8 text
                raise SchemaError(f"{self.manifest_path}: not a JSON "
                                  f"manifest ({exc})") from None
            schema = (self.manifest.get("schema")
                      if isinstance(self.manifest, dict) else None)
            if schema != MANIFEST_SCHEMA:
                raise SchemaError(f"{self.manifest_path}: unsupported schema "
                                  f"{schema!r}")
            for key, kind, what in (("entries", list, "a list"),
                                    ("weights", dict, "an object")):
                if not isinstance(self.manifest.get(key), kind):
                    raise SchemaError(f"{self.manifest_path}: {key!r} is "
                                      f"not {what}")
        else:
            self.manifest = {"schema": MANIFEST_SCHEMA, "parameter": "PF",
                             "entries": [], "weights": {}, "meta": {}}
            self._save()

    def _save(self):
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.manifest, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.manifest_path)

    def _entry(self, param):
        for e in self.manifest["entries"]:
            if abs(e["param"] - param) < 1e-12:
                return e
        return None

    def has_entry(self, param):
        """True when the entry exists and all files pass their checksums."""
        e = self._entry(param)
        if e is None:
            return False
        for rec in e["fields"].values():
            path = os.path.join(self.root, rec["file"])
            if not os.path.exists(path) or _sha256(path) != rec["checksum"]:
                return False
        return True

    def add_entry(self, param, fields, **meta):
        """Store field arrays for one parameter point (overwrites).

        The directory is named by the exact repr of the parameter, so
        distinct parameters never share files. A field whose length
        differs from the one its weights or the other entries record for
        it is a SchemaError, and a parameter that is not finite (NaN would
        replace every entry) an InvalidArgumentError; nothing is written."""
        if not np.isfinite(param):
            raise InvalidArgumentError(f"parameter {param} is not finite")
        for name, values in fields.items():
            n = np.asarray(values).size
            what = f"field {name!r} at parameter {param:g} has {n} values"
            self._refuse_length(name, n, what, skip=param)
            held = self.manifest["weights"].get(name, {}).get("n", n)
            if held != n:
                raise SchemaError(f"{what}; its weights hold {held}")
        sub = f"point_{float(param)!r}"
        os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        recs = {}
        for name, values in fields.items():
            rel = os.path.join(sub, f"{name}.bin")
            path = os.path.join(self.root, rel)
            write_field(path, values)
            recs[name] = {"file": rel, "n": int(np.asarray(values).size),
                          "checksum": _sha256(path)}
        entry = {"param": float(param), "fields": recs, **meta}
        self.manifest["entries"] = [e for e in self.manifest["entries"]
                                    if abs(e["param"] - param) >= 1e-12]
        self.manifest["entries"].append(entry)
        self.manifest["entries"].sort(key=lambda e: e["param"])
        self._save()

    def _refuse_length(self, name, n, what, skip=None):
        """SchemaError, ``what`` first, unless every stored entry of field
        ``name`` (but the one at parameter ``skip``) holds ``n`` values."""
        for e in self.manifest["entries"]:
            rec = e["fields"].get(name)
            if rec and rec["n"] != n and (
                    skip is None or abs(e["param"] - skip) >= 1e-12):
                raise SchemaError(f"{what}; the database holds {rec['n']}")

    def set_weights(self, name, values):
        """Quadrature weights (cell volumes / face areas) for a field, and
        their length. Weights whose length differs from the stored
        entries' are a SchemaError, and nothing is written."""
        n = int(np.asarray(values).size)
        self._refuse_length(name, n,
                            f"weights of field {name!r} have {n} values")
        rel = f"weights_{name}.bin"
        write_field(os.path.join(self.root, rel), values)
        self.manifest["weights"][name] = {
            "file": rel, "n": n,
            "checksum": _sha256(os.path.join(self.root, rel))}
        self._save()

    def weights(self, name):
        """A field's weights, or None; a SchemaError when their length
        differs from its entries' (weights written without a length)."""
        rec = self.manifest["weights"].get(name)
        if rec is None:
            return None
        w = self._read_checked(rec)
        self._refuse_length(name, w.size,
                            f"weights of field {name!r} have {w.size} values")
        return w

    def params(self):
        return np.array([e["param"] for e in self.manifest["entries"]])

    def field_names(self):
        names = set()
        for e in self.manifest["entries"]:
            names.update(e["fields"])
        return sorted(names)

    def load_field(self, param, name):
        e = self._entry(param)
        if e is None or name not in e["fields"]:
            raise InvalidArgumentError(
                f"no snapshot of {name!r} at parameter {param}")
        return self._read_checked(e["fields"][name])

    def _read_checked(self, rec):
        """The field file of manifest record ``rec``; SchemaError when it
        does not match its checksum."""
        path = os.path.join(self.root, rec["file"])
        if _sha256(path) != rec["checksum"]:
            raise SchemaError(f"{path}: checksum mismatch")
        return read_field(path)

    def load_matrix(self, name):
        """Snapshot matrix (N, N_s) and the parameter vector for a field."""
        params = self.params()
        if params.size == 0:
            raise InvalidArgumentError("empty snapshot database")
        cols = [self.load_field(p, name) for p in params]
        for p, col in zip(params, cols):
            if col.size != cols[0].size:
                raise SchemaError(
                    f"field {name!r} has {cols[0].size} values at parameter "
                    f"{params[0]:g} but {col.size} at {p:g}")
        return np.column_stack(cols), params

    def entry_meta(self, param):
        e = self._entry(param)
        if e is None:
            raise InvalidArgumentError(f"no entry at parameter {param}")
        return {k: v for k, v in e.items() if k not in ("param", "fields")}


# -- trained model files --------------------------------------------------------

def save_models(path, models, meta=None):
    """Serialize {field name -> RomModel} into one versioned npz file."""
    payload = {"schema": np.array(MODEL_SCHEMA),
               "fields": np.array(sorted(models))}
    if meta:
        payload["meta"] = np.array(json.dumps(meta))
    for name, m in models.items():
        payload[f"{name}:modes"] = m.basis.modes
        payload[f"{name}:singular_values"] = m.basis.singular_values
        payload[f"{name}:energy"] = np.array([m.basis.energy_fraction])
        payload[f"{name}:coefficients"] = m.coefficients
        payload[f"{name}:params"] = m.params
        payload[f"{name}:kind"] = np.array(m.interpolation_kind)
        if m.basis.weight is not None:
            payload[f"{name}:weight"] = m.basis.weight
    np.savez_compressed(path, **payload)


def load_models(path):
    """Read a model file back into {field name -> RomModel} plus meta; a
    SchemaError that names ``path`` when it is not a model file."""
    try:
        z = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        z = None        # not numpy data, or a truncated archive
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise SchemaError(f"{path}: not a model file "
                          "(not an .npz archive)")
    with z:
        try:
            if str(z["schema"]) != MODEL_SCHEMA:
                raise SchemaError(
                    f"{path}: unsupported model schema {z['schema']!r}")
            models = {}
            for name in [str(f) for f in z["fields"]]:
                modes = z[f"{name}:modes"]
                weight = (z[f"{name}:weight"] if f"{name}:weight" in z
                          else None)
                basis = PodBasis(modes, z[f"{name}:singular_values"],
                                 float(z[f"{name}:energy"][0]),
                                 weight=weight)
                coefficients = z[f"{name}:coefficients"]
                params, kind = z[f"{name}:params"], str(z[f"{name}:kind"])
                fault = _model_fault(modes, coefficients, params, kind)
                if fault:
                    raise SchemaError(f"{path}: field {name!r}: {fault}")
                models[name] = RomModel(basis, coefficients, params, kind,
                                        field_name=name)
            meta = json.loads(str(z["meta"])) if "meta" in z else {}
        except (KeyError, json.JSONDecodeError) as exc:
            # an array the file should hold, or meta that is not JSON
            raise SchemaError(f"{path}: not a model file "
                              f"({exc.args[0]})") from None
    return models, meta


def _model_fault(modes, coefficients, params, kind):
    """What makes a stored model unusable, or None."""
    if kind not in INTERPOLATION_KINDS:
        return f"unknown interpolation kind {kind!r}"
    if params.ndim != 1 or params.size < 2 or not np.isfinite(params).all() \
            or not (np.diff(params) > 0).all():
        return "params are not two or more finite, strictly increasing values"
    if coefficients.shape != (modes.shape[1], params.size):
        return (f"coefficients of shape {coefficients.shape} do not match "
                f"{modes.shape[1]} modes x {params.size} params")
    return None
