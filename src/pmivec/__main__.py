"""``python -m pmivec``: the command-line pipeline."""

from .cli import run

if __name__ == "__main__":
    run()
