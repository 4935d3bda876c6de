"""The README's Python examples run as written."""

import re
from pathlib import Path

from coldamp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    """Each ```python block in turn, in one namespace, next to a run.cfg of the shipped design."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    (tmp_path / "run.cfg").write_text(cli._default_config_text(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "1.0769" in capsys.readouterr().out
