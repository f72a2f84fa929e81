"""Helpers shared by every layer: the one validity rule for numeric
settings, file digests, the parse error that names a file line, the one way
text inputs are opened, and atomic writes that create each output with its
final mode."""

import math
import numbers
import os
from contextlib import contextmanager

try:
    # CPython's built-in SHA-256.  hashlib's default maps OpenSSL, which adds
    # about 3.6 MB of resident memory to every process that hashes anything.
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        from hashlib import sha256


def check_setting(name: str, value, low: float, high: float = math.inf, *, above: bool = False,
                  integral: bool = False):
    """``value`` if it is a finite real number (every integer is; an
    ``Integral`` one with ``integral``), not a bool, in ``[low, high]``
    (``(low, high]`` with ``above``), else a ``ValueError`` naming ``name``.
    Every numeric setting passes here: flags, manifest fields, library calls."""
    kind = numbers.Integral if integral else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))
            or not (low < value if above else low <= value) or value > high):
        what = "an integer" if integral else "a finite number"
        ends = [f"{b:g}" if isinstance(b, float) else str(b) for b in (low, high)]
        span = f"{'(' if above else '['}{ends[0]}, {ends[1]}{']' if high < math.inf else ')'}"
        raise ValueError(f"{name} must be {what} in {span}, not {value!r}")
    return value


def file_sha256(path) -> str:
    """Hex SHA-256 of the bytes of the file ``path``, read 1 MiB at a time."""
    digest = sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


class ParseError(ValueError):
    """An input file violates its documented format.

    The message always carries the offending path and line number so that
    command-line users can locate the problem directly.
    """

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@contextmanager
def open_utf8(path):
    """Open ``path`` for reading as UTF-8 text with universal newlines.

    A byte sequence that is not UTF-8 raises a :class:`ParseError` naming
    ``path`` and the 1-based line of the first bad byte, where a line ends
    as ``open()`` ends it.  The line is found only then, by reading the file
    again with its bad bytes escaped and decoding each line's bytes strictly.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
        return
    except UnicodeDecodeError as exc:
        error = exc
    line_no = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                error = exc
                break
        else:
            line_no += 1  # the file changed since it was read: report its end
    raise ParseError(path, line_no, f"not UTF-8 text: byte 0x{error.object[error.start]:02x}, "
                                    f"{error.reason}") from None


@contextmanager
def atomic_write(path, binary=False):
    """Open a temp file next to ``path`` and rename it into place on success.

    A failure inside the block leaves no partial output behind, which makes
    every pipeline stage restartable.  The file is opened as UTF-8 text with
    ``\\n`` line endings, or for bytes when ``binary`` is true.  It is created
    exclusively with the mode a plain ``open`` gives, 0o666 less the umask,
    which the kernel applies; the umask is never read or set.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
