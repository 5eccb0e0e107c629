"""Inline suppression comments: ``# repro-lint: disable=<rule>[,<rule>...]``.

Comments are located with :mod:`tokenize` rather than a regex over raw
lines so that a string literal containing the marker text never silences a
rule.  The marker applies to the physical line carrying the comment — put
it at the end of the offending line (findings are anchored to the first
line of their statement).  ``disable=all`` silences every rule on that
line.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Set

_MARKER = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s\-]+)")


def parse_disable_comment(comment: str) -> Set[str]:
    """Rule ids named by one comment string (empty set when not a marker)."""
    match = _MARKER.search(comment)
    if not match:
        return set()
    rules = {part.strip() for part in match.group(1).split(",")}
    return {rule for rule in rules if rule}


def line_suppressions(source: str) -> Dict[int, Set[str]]:
    """Tokenise ``source`` and map line number -> suppressed rule ids.

    Tokenisation errors (the file will separately fail to parse) keep the
    markers read so far rather than raising: suppression handling must
    never be the thing that crashes a lint run.
    """
    suppressed: Dict[int, Set[str]] = {}
    readline = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(readline):
            if token.type != tokenize.COMMENT:
                continue
            rules = parse_disable_comment(token.string)
            if rules:
                suppressed.setdefault(token.start[0], set()).update(rules)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return suppressed
