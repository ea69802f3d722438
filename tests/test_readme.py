import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def test_library_use_snippet_runs(capsys):
    """The README's "Library use" snippet runs as printed and reads the
    conditional masking probability it promises."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert len(namespace["examples"]) == 300
    assert namespace["report"].p_mask_given_y1 == pytest.approx(0.222, abs=0.005)
    assert float(capsys.readouterr().out) == namespace["report"].p_mask_given_y1
