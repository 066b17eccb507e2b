"""The kernel cache's build step, driven by a fake compiler.

``build_library`` must hand every compiler invocation its own complete
copy of the source: concurrent builders of the same kernel (the workers
of a cold-cache ``--jobs N`` fan-out) share the cache directory, and a
shared source file rewritten in place could be truncated under another
builder's compiler.  A failed build must leave no temp files behind.
"""

import subprocess

import pytest

from repro.kernels import cbuild

SOURCE = "int answer(void) { return 42; }\n" * 50


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cbuild.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(cbuild, "find_compiler", lambda: "/usr/bin/cc")
    return tmp_path


def _paths(cmd):
    return cmd[cmd.index("-o") + 1], cmd[-1]


class TestBuildLibrary:
    def test_each_build_compiles_its_own_complete_source(
        self, cache, monkeypatch
    ):
        seen = []

        def fake_run(cmd, **kwargs):
            out, src = _paths(cmd)
            if not seen:
                # A second builder starts while the first one's compiler
                # runs, and finishes first.
                seen.append(None)
                inner = cbuild.build_library(SOURCE)
                assert inner.read_bytes() == b"object"
            with open(src, encoding="utf-8") as handle:
                seen.append((src, handle.read()))
            with open(out, "wb") as handle:
                handle.write(b"object")
            return subprocess.CompletedProcess(cmd, 0, "", "")

        monkeypatch.setattr(cbuild.subprocess, "run", fake_run)
        lib = cbuild.build_library(SOURCE)
        builds = [entry for entry in seen if entry is not None]
        assert len(builds) == 2
        assert builds[0][0] != builds[1][0]
        assert all(text == SOURCE for _, text in builds)
        assert lib.read_bytes() == b"object"
        # Only the artifact and its source remain; no temp files.
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            [lib.name, lib.with_suffix(".c").name]
        )
        assert lib.with_suffix(".c").read_text(encoding="utf-8") == SOURCE

    def test_cached_artifact_skips_the_compiler(self, cache, monkeypatch):
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            out, _ = _paths(cmd)
            with open(out, "wb") as handle:
                handle.write(b"object")
            return subprocess.CompletedProcess(cmd, 0, "", "")

        monkeypatch.setattr(cbuild.subprocess, "run", fake_run)
        first = cbuild.build_library(SOURCE)
        assert cbuild.build_library(SOURCE) == first
        assert len(calls) == 1

    def test_failed_compile_leaves_no_temp_files(self, cache, monkeypatch):
        def failing_run(cmd, **kwargs):
            out, _ = _paths(cmd)
            with open(out, "wb") as handle:
                handle.write(b"partial")
            return subprocess.CompletedProcess(cmd, 1, "", "syntax error")

        monkeypatch.setattr(cbuild.subprocess, "run", failing_run)
        with pytest.raises(cbuild.KernelBuildError, match="syntax error"):
            cbuild.build_library(SOURCE)
        assert list(cache.iterdir()) == []
