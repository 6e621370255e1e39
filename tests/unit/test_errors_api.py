"""Tests for the exception hierarchy and the public API surface."""

import importlib
import pkgutil

import pytest

import repro
from repro.errors import (
    ConfigError,
    FastaFormatError,
    GpuSimError,
    ReproError,
    ResourceExceededError,
    SequenceError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ConfigError, FastaFormatError, GpuSimError, SequenceError, ResourceExceededError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_resource_exceeded_is_gpusim_error(self):
        assert issubclass(ResourceExceededError, GpuSimError)

    def test_catchable_as_base(self):
        from repro.io import SequenceDatabase

        with pytest.raises(ReproError):
            SequenceDatabase.from_strings([])


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_headline_types_importable(self):
        # The API the README advertises.
        from repro import (  # noqa: F401
            BLOSUM62,
            CuBlastp,
            CuBlastpConfig,
            FsaBlast,
            SearchParams,
            SequenceDatabase,
        )

    def test_subpackage_alls_resolve(self):
        # Every module's __all__, not a hand-kept list: each name resolves
        # and none is listed twice.
        checked = 0
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue
            mod = importlib.import_module(info.name)
            exported = getattr(mod, "__all__", None)
            if exported is None:
                continue
            checked += 1
            assert len(exported) == len(set(exported)), (info.name, exported)
            for name in exported:
                assert hasattr(mod, name), (info.name, name)
        assert checked > 0
