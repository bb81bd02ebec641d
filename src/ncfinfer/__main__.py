"""``python -m ncfinfer``: the same command line as the ``ncfinfer`` script."""

from .cli import main

if __name__ == "__main__":
    main()
