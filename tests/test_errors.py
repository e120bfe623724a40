import inspect
import re
from pathlib import Path

from boxparse import errors

FAMILY_BASES = {"BoxparseError", "DataError", "NumericError"}


def test_every_error_class_is_raised():
    # a class nothing raises promises a failure mode the package does not have
    package = Path(errors.__file__).parent
    source = "\n".join(p.read_text() for p in package.glob("*.py"))
    names = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, errors.BoxparseError)}
    assert FAMILY_BASES <= names
    unraised = sorted(n for n in names - FAMILY_BASES
                      if not re.search(rf"\braise {n}\(", source))
    assert unraised == []
