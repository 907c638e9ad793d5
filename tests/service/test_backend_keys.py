"""Artifact keys depend on the job spec alone, pinned by golden values.

The SB backend is chosen by ``CoreSolverConfig.backend`` and nothing
else, and :func:`repro.core.config.semantic_backend_name` maps it to a
key class with a fixed table.  The golden keys and design digest below
were measured with the environment unset on the build that still had
the ``REPRO_SB_BACKEND`` override; they must not move.
"""

import hashlib
import json
import sqlite3
from contextlib import closing

import pytest

from repro.core.config import (
    CoreSolverConfig,
    FrameworkConfig,
    semantic_backend_name,
)
from repro.core.framework import IsingDecomposer
from repro.errors import ConfigurationError, UnknownBackendError
from repro.ising.kernels import available_backends, backend_info
from repro.serialization import design_to_dict
from repro.service import JobSpec, JobStore, artifact_key
from repro.service.jobstore import JobRecord
from repro.service.spec import spec_from_stored
from repro.workloads import build_workload

KEY_NUMPY64 = (
    "395ad5504f40403426c3fe83311a7f536db5e901c357bf946dd3d8628b99b727"
)
KEY_NUMPY32 = (
    "c34437a56cc5c84be3eace030f6bf57dc98c11734b731d0d3a40e6d2cd67e2af"
)
DESIGN_SHA256 = (
    "58ee135b73335d5fe357b80b7934396e5bab9fc6b9476c93353925a0a05e5cf9"
)
MED = 12.419921875

GOLDEN = [
    (None, KEY_NUMPY64),
    ("numpy64", KEY_NUMPY64),
    ("numpy32", KEY_NUMPY32),
    ("native32", KEY_NUMPY32),
]


def golden_config(backend):
    return FrameworkConfig(
        mode="joint",
        free_size=4,
        n_partitions=2,
        n_rounds=1,
        seed=5,
        solver=CoreSolverConfig(backend=backend),
    )


@pytest.fixture(scope="module")
def cos9():
    return build_workload("cos", n_inputs=9).table


def key_and_design(table, backend):
    config = golden_config(backend)
    result = IsingDecomposer(config).decompose(table)
    document = json.dumps(design_to_dict(result), sort_keys=True)
    digest = hashlib.sha256(document.encode()).hexdigest()
    return artifact_key(table, config), digest, result.med


class TestGoldenKeys:
    @pytest.mark.parametrize("backend,key", GOLDEN)
    def test_pinned_key_and_design(self, cos9, backend, key):
        assert key_and_design(cos9, backend) == (key, DESIGN_SHA256, MED)

    def test_environment_does_not_select_the_backend(
        self, cos9, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SB_BACKEND", "numpy32")
        assert key_and_design(cos9, None) == (
            KEY_NUMPY64, DESIGN_SHA256, MED
        )


class TestKeyClassMap:
    def test_fixed_map(self):
        assert semantic_backend_name(None) == "numpy64"
        assert semantic_backend_name("numpy64") == "numpy64"
        assert semantic_backend_name("numpy32") == "numpy32"
        assert semantic_backend_name("native32") == "numpy32"

    def test_every_registered_backend_keys_by_its_dtype(self):
        assert available_backends() == ("native32", "numpy32", "numpy64")
        for name in available_backends():
            assert CoreSolverConfig(backend=name).backend == name
            expected = (
                "numpy64"
                if backend_info(name).dtype == "float64"
                else "numpy32"
            )
            assert semantic_backend_name(name) == expected

    @pytest.mark.parametrize("name", ["numba", "torch", "cupy", "cuda"])
    def test_retired_and_unknown_names_rejected(self, name):
        with pytest.raises(ConfigurationError):
            CoreSolverConfig(backend=name)
        with pytest.raises(UnknownBackendError):
            semantic_backend_name(name)


class TestRetiredBackendRows:
    """Rows persisted by older builds may name a retired backend."""

    @pytest.mark.parametrize("retired", ["numba", "torch", "cupy"])
    def test_stored_row_loads_as_numpy64(self, tmp_path, fast_config,
                                         retired):
        path = tmp_path / "jobs.sqlite3"
        store = JobStore(path)
        spec = JobSpec(workload="cos", n_inputs=6, config=fast_config)
        job = store.submit(spec, "a" * 64, now=100.0)
        wire = spec.to_wire()
        wire["config"]["solver"]["backend"] = retired
        with closing(sqlite3.connect(path)) as conn, conn:
            conn.execute(
                "UPDATE jobs SET spec = ? WHERE id = ?",
                (json.dumps(wire), job.id),
            )

        loaded = store.get(job.id)
        assert loaded.spec.config.solver.backend == "numpy64"
        assert loaded.artifact_key == "a" * 64
        assert [r.id for r in store.list_jobs()] == [job.id]
        page = store.list_jobs(limit=10, after=(0.0, ""))
        assert [r.id for r in page] == [job.id]
        claimed = store.claim("w0", lease_seconds=30.0, now=101.0)
        assert claimed.id == job.id
        assert claimed.spec.config.solver.backend == "numpy64"

        # the record dict a fleet agent receives reads the same way
        record = loaded.to_dict()
        record["spec"] = wire
        assert JobRecord.from_dict(record).spec == loaded.spec

    def test_legacy_untagged_row_loads_as_numpy64(self, fast_config):
        legacy = JobSpec(workload="cos", n_inputs=6,
                         config=fast_config).to_dict()
        legacy["config"]["solver"]["backend"] = "numba"
        spec = spec_from_stored(legacy)
        assert spec.config.solver.backend == "numpy64"
