"""Setup shim: the project metadata lives in ``pyproject.toml``."""

from setuptools import setup

setup()
