import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) wraps fn at every name it is bound to in a loaded
    walklevel module and returns the list of each call's first argument;
    count_calls(fn, arg) lists each call's positional argument arg."""

    def install(fn, arg=0):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[arg] if len(args) > arg else None)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "walklevel":
                continue
            for attr, val in list(vars(module).items()):
                if val is fn:
                    monkeypatch.setattr(module, attr, counted)
        return calls

    return install
