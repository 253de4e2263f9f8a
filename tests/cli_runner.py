"""Run a command-line entry point in this process and keep what it did: a
standard-library stand-in for ``click.testing.CliRunner``."""

import contextlib
import io
from dataclasses import dataclass


class _Copying(io.StringIO):
    """A captured stream that also copies every write into a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, s: str) -> int:
        self.shared.write(s)
        return super().write(s)


@dataclass
class Result:
    exit_code: int
    exception: BaseException | None  # a SystemExit with a nonzero code, or what was raised
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, in the order they were written

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class CliRunner:
    def invoke(self, main, args) -> Result:
        """Call main(args) with stdout and stderr captured.  A SystemExit
        gives its code, and is kept when that is nonzero; any other
        exception gives exit code 1 and is kept."""
        output = io.StringIO()
        stdout, stderr = _Copying(output), _Copying(output)
        exception = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(args)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
                exception = exc if code else None
            except Exception as exc:
                code, exception = 1, exc
        return Result(code, exception, stdout.getvalue(), stderr.getvalue(), output.getvalue())
