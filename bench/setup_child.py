"""One cold set-up of coersimp, timed in a fresh interpreter.

Reads corpus text from stdin, then times the import of `coersimp.cli`
(which imports every layer) and `parse_corpus` on the text, judgment
included. Prints one JSON object: `import_s`, `parse_s` and `items`.

    python3 bench/setup_child.py < corpus.sexp
"""

import json
import sys
import time
from pathlib import Path

text = sys.stdin.read()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
start = time.perf_counter()
import coersimp.cli  # noqa: E402
from coersimp.corpus import parse_corpus  # noqa: E402

imported = time.perf_counter()
items = parse_corpus(text)
parsed = time.perf_counter()
print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported,
                  "items": len(items)}))
