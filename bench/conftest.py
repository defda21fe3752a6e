"""Make the checkout's ``src`` importable before the harness modules load."""

from repetition import import_package

import_package()
