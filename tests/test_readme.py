"""The README's Python examples, run as one doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    # joined blocks: a blank line, not the closing fence, ends each expected output
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    source = "\n".join(blocks)
    test = doctest.DocTestParser().get_doctest(source, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0
    assert result.attempted == source.count(">>> ") > 0
