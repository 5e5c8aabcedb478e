"""Snapshot database persistence, resumability, and model files."""

import json
import os

import numpy as np
import pytest

from hemoflow.errors import InvalidArgumentError, SchemaError
from hemoflow.podi import SnapshotSet, train
from hemoflow.snapshots import (SnapshotDB, load_models, read_field,
                                save_models, write_field)


class TestFieldFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(257)
        path = tmp_path / "f.bin"
        write_field(path, values)
        assert np.array_equal(read_field(path), values)

    def test_foreign_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a field file at all")
        with pytest.raises(SchemaError):
            read_field(path)

    def test_truncated_file_is_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_field(path, np.arange(100.0))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(SchemaError):
            read_field(path)

    def test_length_beyond_the_file_is_rejected(self, tmp_path):
        """A corrupt length header is refused before it is read: 2**61
        used to raise OverflowError."""
        path = tmp_path / "f.bin"
        write_field(path, np.arange(4.0))
        data = bytearray(path.read_bytes())
        data[7:15] = (2 ** 61).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match="truncated field file"):
            read_field(path)
        path.write_bytes(bytes(data[:10]))     # a header cut short
        with pytest.raises(SchemaError, match="truncated field file"):
            read_field(path)

    def test_only_flat_arrays(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            write_field(tmp_path / "f.bin", np.ones((2, 2)))


class TestSnapshotDB:
    @staticmethod
    def populate(root, params=(3.0, 3.5, 4.0)):
        db = SnapshotDB(root)
        rng = np.random.default_rng(7)
        for pf in params:
            db.add_entry(pf, {"p": rng.standard_normal(40),
                              "u_x": rng.standard_normal(40)},
                         omega_rpm=5000.0 + pf, fom_seconds=1.5)
        db.set_weights("p", np.full(40, 0.25))
        return db

    def test_entries_are_recoverable(self, tmp_path):
        db = self.populate(tmp_path / "db")
        assert np.allclose(db.params(), [3.0, 3.5, 4.0])
        assert db.field_names() == ["p", "u_x"]
        S, params = db.load_matrix("p")
        assert S.shape == (40, 3)
        assert np.array_equal(S[:, 1], db.load_field(3.5, "p"))
        assert db.entry_meta(3.5)["omega_rpm"] == 5003.5
        assert np.allclose(db.weights("p"), 0.25)
        assert db.weights("wss") is None

    def test_reopen_sees_same_content(self, tmp_path):
        root = tmp_path / "db"
        db = self.populate(root)
        again = SnapshotDB(root)
        assert np.allclose(again.params(), db.params())
        assert np.array_equal(again.load_field(4.0, "u_x"),
                              db.load_field(4.0, "u_x"))

    def test_has_entry_verifies_checksums(self, tmp_path):
        root = tmp_path / "db"
        db = self.populate(root)
        assert db.has_entry(3.5)
        assert not db.has_entry(4.5)
        entry = next(e for e in db.manifest["entries"] if e["param"] == 3.5)
        victim = root / entry["fields"]["p"]["file"]
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert not db.has_entry(3.5)
        with pytest.raises(SchemaError):
            db.load_field(3.5, "p")

    def test_weights_verify_their_checksum(self, tmp_path):
        """A weights file with its last byte flipped used to be read back
        with no error."""
        root = tmp_path / "db"
        db = self.populate(root)
        victim = root / db.manifest["weights"]["p"]["file"]
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match="checksum mismatch"):
            db.weights("p")

    def test_weights_record_their_length_and_refuse_a_mismatch(self,
                                                               tmp_path):
        """Weights stored before any entry fix the field's length, and
        entries stored before the weights fix it for them; a mismatch
        either way is refused with nothing written. Weights recorded no
        length, and an entry of 9 values went in after weights of 8."""
        root = tmp_path / "weights_first"
        db = SnapshotDB(root)
        db.set_weights("p", np.ones(8))
        assert db.manifest["weights"]["p"]["n"] == 8
        manifest = (root / "manifest.json").read_text()
        with pytest.raises(SchemaError, match="^field 'p' at parameter 3 has "
                           "9 values; its weights hold 8$"):
            db.add_entry(3.0, {"p": np.ones(9)})
        assert (root / "manifest.json").read_text() == manifest
        assert sorted(os.listdir(root)) == ["manifest.json", "weights_p.bin"]
        root = tmp_path / "entries_first"
        db = SnapshotDB(root)
        db.add_entry(3.0, {"p": np.ones(9)})
        manifest = (root / "manifest.json").read_text()
        with pytest.raises(SchemaError, match="^weights of field 'p' have 8 "
                           "values; the database holds 9$"):
            db.set_weights("p", np.ones(8))
        assert (root / "manifest.json").read_text() == manifest
        assert sorted(os.listdir(root)) == ["manifest.json", "point_3.0"]

    def test_close_parameters_keep_separate_files(self, tmp_path):
        db = SnapshotDB(tmp_path / "db")
        db.add_entry(3.0, {"p": np.full(4, 1.0)})
        db.add_entry(3.0000002, {"p": np.full(4, 2.0)})
        assert db.has_entry(3.0) and db.has_entry(3.0000002)
        assert np.all(db.load_field(3.0, "p") == 1.0)
        assert np.all(db.load_field(3.0000002, "p") == 2.0)

    def test_add_entry_overwrites_in_place(self, tmp_path):
        db = self.populate(tmp_path / "db")
        db.add_entry(3.5, {"p": np.zeros(40), "u_x": np.zeros(40)})
        assert db.params().size == 3
        assert np.all(db.load_field(3.5, "p") == 0.0)

    @pytest.mark.parametrize("param", [float("nan"), float("inf")])
    def test_a_non_finite_parameter_is_refused(self, tmp_path, param):
        """NaN matched no stored entry in the overwrite test, so adding it
        used to drop every other entry: a database of 3.0 and 4.0 read
        [nan] afterwards."""
        root = tmp_path / "db"
        db = self.populate(root, params=(3.0, 4.0))
        manifest = (root / "manifest.json").read_text()
        with pytest.raises(InvalidArgumentError, match="not finite"):
            db.add_entry(param, {"p": np.zeros(40), "u_x": np.zeros(40)})
        assert (root / "manifest.json").read_text() == manifest
        assert np.array_equal(db.params(), [3.0, 4.0])
        assert db.has_entry(3.0) and db.has_entry(4.0)
        assert not any(p.name.startswith(f"point_{param!r}")
                       for p in root.iterdir())

    def test_unknown_entries_are_errors(self, tmp_path):
        db = self.populate(tmp_path / "db")
        with pytest.raises(InvalidArgumentError):
            db.load_field(9.9, "p")
        with pytest.raises(InvalidArgumentError):
            db.entry_meta(9.9)

    def test_foreign_manifest_is_rejected(self, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / "manifest.json").write_text('{"schema": "something-else/9"}')
        with pytest.raises(SchemaError):
            SnapshotDB(root)

    @pytest.mark.parametrize("body, match", [
        ({}, "'entries' is not a list"),
        ({"entries": {}, "weights": {}}, "'entries' is not a list"),
        ({"entries": [], "weights": []}, "'weights' is not an object"),
    ], ids=["bare", "entries-object", "weights-list"])
    def test_manifest_without_entries_and_weights_is_rejected(
            self, tmp_path, body, match):
        """The right schema with no list of entries or no weights object
        used to fail later, with a KeyError or TypeError."""
        root = tmp_path / "db"
        root.mkdir()
        (root / "manifest.json").write_text(
            json.dumps({"schema": "hemoflow-snapshots/1", **body}))
        with pytest.raises(SchemaError, match=match):
            SnapshotDB(root)


class TestModelFiles:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(3)
        params = np.linspace(3.0, 5.0, 7)
        models = {}
        for name, w in (("p", np.full(30, 0.5)), ("u_x", None)):
            S = np.column_stack([np.sin(np.linspace(0, 1, 30) * pi) * pi
                                 for pi in params])
            S += 0.01 * rng.standard_normal(S.shape)
            models[name] = train(SnapshotSet(S, params, weight=w),
                                 energy_threshold=1.0)
        path = tmp_path / "model.npz"
        save_models(path, models, meta={"threshold": 1.0})
        back, meta = load_models(path)
        assert meta == {"threshold": 1.0}
        assert set(back) == {"p", "u_x"}
        for name in models:
            for pi in (3.0, 4.17, 5.0):
                assert np.allclose(back[name].predict(pi),
                                   models[name].predict(pi),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("fault, match", [
        ("cubic", "interpolation kind 'cubic'"),
        ("reversed", "strictly increasing"),
        ("nan", "finite"),
        ("one mode short", "coefficients of shape"),
    ])
    def test_unusable_model_is_rejected(self, tmp_path, fault, match):
        """Each of these loaded silently and failed, or answered wrongly,
        only at prediction time."""
        params = np.linspace(3.0, 5.0, 5)
        S = np.column_stack([np.cos(np.linspace(0, 1, 20) * pi)
                             for pi in params])
        model = train(SnapshotSet(S, params), energy_threshold=1.0)
        if fault == "cubic":
            model.interpolation_kind = "cubic"
        elif fault == "reversed":
            model.params = model.params[::-1]
            model.coefficients = model.coefficients[:, ::-1]
        elif fault == "nan":
            model.params = np.where(model.params == 4.0, np.nan,
                                    model.params)
        else:
            model.coefficients = model.coefficients[:-1]
        path = tmp_path / "model.npz"
        save_models(path, {"p": model})
        with pytest.raises(SchemaError, match=match):
            load_models(path)

    def test_foreign_model_file_is_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, schema=np.array("other/1"), fields=np.array([]))
        with pytest.raises(SchemaError):
            load_models(path)
