"""The README's library example and command chain run as written."""

import re
import shlex
from pathlib import Path

from corrseg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under '## Library'"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["reports"]


def test_command_chain_runs_into_separate_outputs(tmp_path, monkeypatch):
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block, "no sh block under '## Command line'"
    commands = [shlex.split(line, comments=True)
                for line in block.group(1).replace("\\\n", " ").splitlines()]
    chain = [argv[1:] for argv in commands
             if argv and argv[1] in ("simulate", "segment", "test", "evaluate")]
    assert [argv[0] for argv in chain] == ["simulate", "segment", "test", "evaluate"]
    monkeypatch.chdir(tmp_path)
    outs = []
    for argv in chain:
        assert main(argv) == 0, argv
        outs.append(Path(argv[argv.index("--out") + 1]).resolve())
    # each command writes a manifest.json, so a shared --out overwrites one
    assert len(set(outs)) == len(outs), outs
