"""Setup shim for environments without PEP 517 build frontends.

The canonical metadata lives in ``pyproject.toml``; this file only enables
legacy editable installs (``pip install -e . --no-use-pep517``) on machines
where the ``wheel`` package is unavailable (such as the offline evaluation
environment).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="TDmatch reproduction: unsupervised matching of data and text (ICDE 2022)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
