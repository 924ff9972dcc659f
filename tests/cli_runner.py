"""Run the `fubini` CLI in this process and capture its exit code and streams."""

import io
import os
import sys
from dataclasses import dataclass

from fubini.cli import main


@dataclass
class Result:
    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes
    # the SystemExit of a nonzero exit, or an exception that escaped main
    exception: BaseException | None

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode("utf-8")

    @property
    def stderr(self) -> str:
        return self.stderr_bytes.decode("utf-8")


def invoke(args, env=None) -> Result:
    """`fubini args` as the console script runs it, with env set for the call."""
    out, err = io.BytesIO(), io.BytesIO()
    # the wrappers close their buffers when freed, so they are kept to the end
    captured = io.TextIOWrapper(out, encoding="utf-8"), io.TextIOWrapper(err, encoding="utf-8")
    streams = sys.stdout, sys.stderr
    saved_env = {name: os.environ.get(name) for name in env or {}}
    sys.stdout, sys.stderr = captured
    os.environ.update(env or {})
    exception = None
    try:
        main(args=list(args), prog_name="fubini", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
        exception = exc if code else None
    except Exception as exc:
        code, exception = 1, exc
    finally:
        for stream in captured:
            stream.flush()
        sys.stdout, sys.stderr = streams
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return Result(code, out.getvalue(), err.getvalue(), exception)
