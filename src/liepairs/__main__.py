"""`python -m liepairs`: the `liepairs` command line, run from a checkout
with `src` on the path or from an installed package."""

from .cli import main

if __name__ == "__main__":
    main()
