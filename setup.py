"""The package metadata (there is no pyproject.toml).  Kept as a classic
``setup.py`` because the sandbox's setuptools predates PEP 660 editable
wheels, so ``pip install -e .`` needs the ``setup.py develop`` path.

Python >= 3.10: ``Rule`` and ``HopRule`` are ``dataclass(slots=True)``."""

from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
