from __future__ import annotations

import pytest

import vouchsafe as vs


@pytest.fixture(scope="session")
def alice():
    kp = vs.generate_keypair(b"\x11" * 32)
    return kp, vs.derive_identity(kp.public, "alice")


@pytest.fixture(scope="session")
def root():
    kp = vs.generate_keypair(b"\x22" * 32)
    return kp, vs.derive_identity(kp.public, "root")


@pytest.fixture(scope="session")
def mallory():
    kp = vs.generate_keypair(b"\x33" * 32)
    return kp, vs.derive_identity(kp.public, "mallory")


@pytest.fixture
def graph_builds(monkeypatch):
    """Records each clean set whose capability graph gets built."""
    import vouchsafe.resolution

    builds = []
    real = vouchsafe.resolution.build_graph
    monkeypatch.setattr(
        vouchsafe.resolution, "build_graph", lambda clean: builds.append(clean) or real(clean)
    )
    return builds


def write_bundle(path, tokens):
    path.write_text("".join(t.wire + "\n" for t in tokens), encoding="utf-8")
    return path


@pytest.fixture
def bundle_writer(tmp_path):
    def _write(name, tokens):
        return write_bundle(tmp_path / name, tokens)

    return _write
