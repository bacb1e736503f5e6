"""The README's library quick start, run as written.

The ```python blocks of its "Library quick start" section run in order in one
namespace, and each must print what its trailing comment says.
"""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks():
    text = README.read_text()
    section = text[text.index("## Library quick start"):text.index("## Experiment harness")]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_the_quick_start_snippets_print_what_the_readme_says():
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    namespace, printed = {}, []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed.append(out.getvalue())

    traj = namespace["traj"]
    assert (traj.stopped_at, traj.residuals[-1]) == (88, 8.852069359821741e-09)
    assert printed == ["88 8.852069359821741e-09\n", "[98, 152, 161, 142]\n"]
    # each trailing comment shows what its block prints, the residual to three digits
    said = [re.search(r"print\(.*\)\s+# (.*)", block).group(1) for block in blocks]
    assert said == [f"88 {traj.residuals[-1]:.3g}", "[98, 152, 161, 142]"]
