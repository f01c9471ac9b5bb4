"""``python -m dfan``: the same command line as the ``dfan`` script."""

from .cli import main

if __name__ == "__main__":
    main()
