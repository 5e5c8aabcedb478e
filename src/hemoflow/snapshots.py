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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SchemaError
from .podi import INTERPOLATION_KINDS, PodBasis, RomModel

MANIFEST_SCHEMA = "hemoflow-snapshots/1"
MODEL_SCHEMA = "hemoflow-rom/1"
_FIELD_MAGIC = b"HFFLD1\n"


@dataclass
class SweepPlan:
    """Equispaced 1-D sweep of the pump flow rate."""

    lo: float
    hi: float
    count: int
    delta_p: float = 75.0          # mmHg, fixed head for speed back-calculation
    parameter: str = "PF"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidArgumentError("sweep needs lo < hi")
        if self.count < 2:
            raise InvalidArgumentError("sweep needs at least 2 points")

    def params(self):
        return np.linspace(self.lo, self.hi, self.count)


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
        (n,) = struct.unpack("<Q", fh.read(8))
        data = np.frombuffer(fh.read(8 * n), dtype="<f8")
        if data.size != n:
            raise SchemaError(f"{path}: truncated field file")
    return np.array(data)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


class SnapshotDB:
    """One directory per sweep; manifest-tracked field files."""

    def __init__(self, root):
        self.root = root
        self.manifest_path = os.path.join(root, "manifest.json")
        os.makedirs(root, exist_ok=True)
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as fh:
                self.manifest = json.load(fh)
            if self.manifest.get("schema") != MANIFEST_SCHEMA:
                raise SchemaError(f"{self.manifest_path}: unsupported schema "
                                  f"{self.manifest.get('schema')!r}")
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
        distinct parameters never share files."""
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

    def set_weights(self, name, values):
        """Quadrature weights (cell volumes / face areas) for a field."""
        rel = f"weights_{name}.bin"
        write_field(os.path.join(self.root, rel), values)
        self.manifest["weights"][name] = {
            "file": rel, "checksum": _sha256(os.path.join(self.root, rel))}
        self._save()

    def weights(self, name):
        rec = self.manifest["weights"].get(name)
        if rec is None:
            return None
        return read_field(os.path.join(self.root, rec["file"]))

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
        rec = e["fields"][name]
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
    """Read a model file back into {field name -> RomModel} plus meta."""
    with np.load(path, allow_pickle=False) as z:
        if str(z["schema"]) != MODEL_SCHEMA:
            raise SchemaError(f"{path}: unsupported model schema {z['schema']!r}")
        models = {}
        for name in [str(f) for f in z["fields"]]:
            modes = z[f"{name}:modes"]
            weight = z[f"{name}:weight"] if f"{name}:weight" in z else None
            basis = PodBasis(modes, z[f"{name}:singular_values"],
                             modes.shape[1],
                             float(z[f"{name}:energy"][0]), weight=weight)
            coefficients = z[f"{name}:coefficients"]
            params, kind = z[f"{name}:params"], str(z[f"{name}:kind"])
            fault = _model_fault(modes, coefficients, params, kind)
            if fault:
                raise SchemaError(f"{path}: field {name!r}: {fault}")
            models[name] = RomModel(basis, coefficients, params, kind,
                                    field_name=name)
        meta = json.loads(str(z["meta"])) if "meta" in z else {}
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
