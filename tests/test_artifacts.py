"""Artifact save → load round-trips and integrity checking."""

import json
import zipfile

import numpy as np
import pytest

from repro.core.api import bitruss_decomposition
from repro.datasets import load_dataset
from repro.service.artifacts import (
    ArtifactError,
    ArtifactIntegrityError,
    DecompositionArtifact,
    build_artifact,
    graph_sha256,
    load_artifact,
    save_artifact,
)


@pytest.fixture
def artifact(figure4):
    return build_artifact(figure4, algorithm="bu-csr")


def test_build_matches_decomposition(figure4):
    result = bitruss_decomposition(figure4, algorithm="bu-csr")
    artifact = DecompositionArtifact.from_decomposition(result)
    np.testing.assert_array_equal(artifact.phi, result.phi)
    assert artifact.algorithm == result.stats.algorithm
    assert artifact.max_k == result.max_k
    assert artifact.graph is result.graph


def test_round_trip_bitwise_phi(artifact, tmp_path):
    path = tmp_path / "figure4.npz"
    save_artifact(artifact, path)
    reopened = load_artifact(path)
    assert np.array_equal(reopened.phi, artifact.phi)
    assert reopened.phi.dtype == np.int64
    assert reopened.algorithm == artifact.algorithm
    assert reopened.graph_hash == artifact.graph_hash
    assert reopened.meta["updates"] == artifact.meta["updates"]


def test_round_trip_graph_structure(artifact, tmp_path):
    path = tmp_path / "figure4.npz"
    artifact.save(path)
    reopened = load_artifact(path)
    g, h = artifact.graph, reopened.graph
    assert (g.num_upper, g.num_lower, g.num_edges) == (
        h.num_upper,
        h.num_lower,
        h.num_edges,
    )
    assert g.to_edge_list() == h.to_edge_list()
    for ours, theirs in zip(g.csr_upper() + g.csr_lower(),
                            h.csr_upper() + h.csr_lower()):
        np.testing.assert_array_equal(ours, theirs)
    h.validate()


@pytest.mark.parametrize("name", ["github", "marvel", "condmat"])
def test_round_trip_on_datasets(name, tmp_path):
    artifact = build_artifact(load_dataset(name), algorithm="bu-csr")
    path = tmp_path / f"{name}.npz"
    save_artifact(artifact, path)
    reopened = load_artifact(path)
    assert np.array_equal(reopened.phi, artifact.phi)
    assert graph_sha256(reopened.graph) == artifact.graph_hash


def test_phi_length_mismatch_rejected(figure4):
    with pytest.raises(ArtifactError):
        DecompositionArtifact(graph=figure4, phi=np.zeros(3, dtype=np.int64))


def test_phi_is_frozen_copy(figure4):
    phi = np.ones(figure4.num_edges, dtype=np.int64)
    artifact = DecompositionArtifact(graph=figure4, phi=phi)
    assert not artifact.phi.flags.writeable
    phi[0] = 99  # the caller's array stays writable and detached
    assert artifact.phi[0] == 1


def test_not_an_artifact(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, foo=np.arange(3))
    with pytest.raises(ArtifactError):
        load_artifact(path)
    text = tmp_path / "junk.txt"
    text.write_text("not even a zip")
    with pytest.raises(ArtifactError):
        load_artifact(text)


def _resave_with(path, out, **overrides):
    """Rewrite an artifact archive with some members replaced."""
    with np.load(path) as archive:
        members = {k: archive[k] for k in archive.files}
    members.update(overrides)
    with open(out, "wb") as handle:
        np.savez_compressed(handle, **members)


def test_tampered_phi_detected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    bad = tmp_path / "bad.npz"
    forged = np.array(artifact.phi)
    forged[0] += 1
    _resave_with(path, bad, phi=forged)
    with pytest.raises(ArtifactIntegrityError):
        load_artifact(bad)


def test_tampered_graph_detected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    bad = tmp_path / "bad.npz"
    with np.load(path) as archive:
        edge_upper = np.array(archive["edge_upper"])
        num_upper = len(archive["up_indptr"]) - 1
    # Move one endpoint to a different (in-range) vertex; the CSR blocks no
    # longer match the endpoint arrays, so either the structural validation
    # or the graph hash must catch it.
    edge_upper[0] = (edge_upper[0] + 1) % num_upper
    _resave_with(path, bad, edge_upper=edge_upper)
    with pytest.raises(ArtifactIntegrityError):
        load_artifact(bad)


def test_corrupt_header_detected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    bad = tmp_path / "bad.npz"
    _resave_with(
        path,
        bad,
        header=np.frombuffer(b"\xff\xfe not json", dtype=np.uint8),
    )
    with pytest.raises(ArtifactError):
        load_artifact(bad)


def test_unsupported_version_rejected(artifact, tmp_path):
    path = tmp_path / "good.npz"
    save_artifact(artifact, path)
    with np.load(path) as archive:
        header = json.loads(bytes(archive["header"].tobytes()).decode())
    header["version"] = 999
    bad = tmp_path / "bad.npz"
    _resave_with(
        path,
        bad,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
    )
    with pytest.raises(ArtifactError):
        load_artifact(bad)


def test_archive_is_a_single_npz(artifact, tmp_path):
    path = tmp_path / "one.npz"
    save_artifact(artifact, path)
    assert zipfile.is_zipfile(path)


def test_invalidate_sets_stale(artifact):
    assert not artifact.stale
    artifact.invalidate()
    assert artifact.stale


def test_to_decomposition_round_trip(artifact):
    result = artifact.to_decomposition()
    np.testing.assert_array_equal(result.phi, artifact.phi)
    assert result.stats.algorithm == artifact.algorithm
    assert result.max_k == artifact.max_k


def test_graph_hash_is_content_addressed(figure4):
    clone = figure4.copy()
    assert graph_sha256(figure4) == graph_sha256(clone)


def test_build_artifact_workers_routes_through_runtime(figure4):
    from repro.runtime import is_available

    if not is_available():
        pytest.skip("POSIX shared memory unavailable")
    serial = build_artifact(figure4, algorithm="bit-bu-csr")
    parallel = build_artifact(figure4, workers=2)
    # The serial default upgrades to the runtime path; phi is identical.
    assert parallel.algorithm == "BiT-BU-PAR"
    assert parallel.meta["workers"] == 2
    np.testing.assert_array_equal(serial.phi, parallel.phi)


def test_build_artifact_workers_rejects_serial_algorithms(figure4):
    with pytest.raises(ValueError):
        build_artifact(figure4, algorithm="bit-pc", workers=2)


# ------------------------------------------------------------ atomic saves


@pytest.fixture
def other_artifact():
    return build_artifact(load_dataset("marvel"), algorithm="bu-csr")


def _assert_is(reopened, artifact):
    assert reopened.graph_hash == artifact.graph_hash
    assert np.array_equal(reopened.phi, artifact.phi)
    reopened.graph.validate()


def _crash_after(monkeypatch, fn_name, calls):
    """Make ``np.<fn_name>`` raise once it has written ``calls`` times."""
    real = getattr(np, fn_name)
    written = []

    def flaky(*args, **kwargs):
        if len(written) == calls:
            raise OSError("injected crash")
        written.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, fn_name, flaky)
    return written


def test_crash_mid_dir_save_keeps_previous_artifact(
    artifact, other_artifact, tmp_path, monkeypatch
):
    path = tmp_path / "art"
    save_artifact(artifact, path, layout="dir")
    written = _crash_after(monkeypatch, "save", 3)
    with pytest.raises(OSError, match="injected crash"):
        save_artifact(other_artifact, path, layout="dir")
    assert len(written) == 3
    monkeypatch.undo()
    for mmap_mode in (None, "r"):
        _assert_is(load_artifact(path, mmap_mode=mmap_mode), artifact)
    # The failed write leaves no temporary behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["art"]


def test_crash_mid_npz_save_keeps_previous_artifact(
    artifact, other_artifact, tmp_path, monkeypatch
):
    path = tmp_path / "art.npz"
    save_artifact(artifact, path)
    _crash_after(monkeypatch, "savez_compressed", 0)
    with pytest.raises(OSError, match="injected crash"):
        save_artifact(other_artifact, path)
    monkeypatch.undo()
    _assert_is(load_artifact(path), artifact)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["art.npz"]


@pytest.mark.parametrize("name", ["art", "art.npz"])
def test_overwrite_replaces_the_artifact(
    name, artifact, other_artifact, tmp_path
):
    path = tmp_path / name
    save_artifact(artifact, path)
    save_artifact(other_artifact, path)
    _assert_is(load_artifact(path), other_artifact)
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_overwrite_keeps_an_open_mmap_readable(
    artifact, other_artifact, tmp_path
):
    path = tmp_path / "art"
    save_artifact(artifact, path, layout="dir")
    served = load_artifact(path, mmap_mode="r")
    save_artifact(other_artifact, path, layout="dir")
    # The swap never writes into the files a live reader maps.
    _assert_is(served, artifact)
    _assert_is(load_artifact(path, mmap_mode="r"), other_artifact)


def test_dir_save_into_empty_directory(artifact, tmp_path):
    path = tmp_path / "empty"
    path.mkdir()
    save_artifact(artifact, path, layout="dir")
    _assert_is(load_artifact(path), artifact)


def test_dir_save_refuses_foreign_files(artifact, tmp_path):
    path = tmp_path / "busy"
    path.mkdir()
    (path / "notes.txt").write_text("keep me")
    with pytest.raises(ArtifactError, match="non-artifact files"):
        save_artifact(artifact, path, layout="dir")
    assert (path / "notes.txt").read_text() == "keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["busy"]


def test_dir_save_refuses_a_file_target(artifact, tmp_path):
    path = tmp_path / "plain"
    path.write_text("x")
    with pytest.raises(ArtifactError, match="not a directory"):
        save_artifact(artifact, path, layout="dir")
    assert path.read_text() == "x"


def _mode(path):
    return path.stat().st_mode & 0o777


@pytest.mark.parametrize("name", ["art", "art.npz"])
def test_saved_files_get_ordinary_permissions(name, artifact, tmp_path):
    """The temporary is created like any new file, so the umask applies."""
    (tmp_path / "ref").mkdir()
    (tmp_path / "ref.txt").write_text("")
    path = tmp_path / name
    save_artifact(artifact, path)
    if path.is_dir():
        assert _mode(path) == _mode(tmp_path / "ref")
        assert {_mode(p) for p in path.iterdir()} == {_mode(tmp_path / "ref.txt")}
    else:
        assert _mode(path) == _mode(tmp_path / "ref.txt")
