"""The committed manifest of `scripts/reproduce_all.sh`'s outputs is well formed,
and `scripts/manifest.py` reports each file that differs from one."""
import importlib.util
import re
from pathlib import Path

from riwfa.cli import PRESETS

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "scripts" / "reproduce_all.sha256"
_spec = importlib.util.spec_from_file_location("manifest", ROOT / "scripts" / "manifest.py")
manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(manifest)


def test_committed_manifest_is_well_formed():
    head, entries = manifest.parse(MANIFEST.read_text())
    # the numpy build and the CPU features it dispatches to, whatever this machine's
    assert len(head) == 3
    assert re.fullmatch(r"# numpy \d+\.\d+\.\d+\S*", head[0])
    assert re.fullmatch(r"# cpu baseline( \w+)*", head[1])
    assert re.fullmatch(r"# cpu dispatch( \w+)*", head[2])
    lines = MANIFEST.read_text().splitlines()[len(head):]
    assert len(lines) == len(entries)
    assert all(re.fullmatch(r"[0-9a-f]{64}  [\w.-]+(/[\w.-]+)+", line) for line in lines)
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(paths) and ".." not in {p for path in paths for p in path.split("/")}
    # every command the script runs keeps its stdout, stderr and exit code
    for folder in {path.split("/")[0] for path in paths}:
        assert {f"{folder}/{name}" for name in ("stdout.txt", "stderr.txt", "exit_code.txt")} \
            <= set(paths)


def test_script_reproduces_every_preset_at_jobs_1():
    # the --jobs 1 loop names every CLI preset, so none can miss the manifest
    script = (ROOT / "scripts" / "reproduce_all.sh").read_text()
    [names] = re.findall(r'for preset in ([\w ]+); do\n +reproduce "\$preset" "\$preset" '
                         r'--jobs 1\n', script)
    assert names.split() == list(PRESETS)


def test_compare_names_each_added_missing_and_changed_file(tmp_path, capsys):
    out = tmp_path / "out"
    for name in ("a/kept.txt", "a/changed.txt", "b/missing.txt"):
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(name)
    written = tmp_path / "manifest.sha256"
    written.write_text(manifest.render(str(out)))
    assert manifest.compare(str(out), str(written)) == 0
    assert capsys.readouterr().out == "manifest: all 3 files match\n"
    (out / "a/changed.txt").write_text("moved")
    (out / "b/missing.txt").unlink()
    (out / "b/added.txt").write_text("new")
    assert manifest.compare(str(out), str(written)) == 1
    assert capsys.readouterr().out == ("manifest: changed a/changed.txt\n"
                                       "manifest: added b/added.txt\n"
                                       "manifest: missing b/missing.txt\n")
