"""Usage and help text of the command line, built from ``cli._COMMANDS``.

``cli`` imports this module only to print help or a usage error, so
that a run compiles none of it.
"""

from __future__ import annotations

from .cli import _COMMANDS, _REQUIRED


def _spelling(flag: str, kind: object) -> str:
    if kind is bool:
        return flag
    if isinstance(kind, tuple):
        return f"{flag} {{{','.join(kind)}}}"
    return f"{flag} {'N' if kind is int else flag[2:].upper()}"


def usage(command: str | None) -> str:
    """The usage line of ``command``, or of ``symleak`` itself when
    ``command`` names no command."""
    if command not in _COMMANDS:
        return f"usage: symleak [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"usage: symleak {command} [-h] FILE"]
    for flag, kind, default, _ in _COMMANDS[command][2]:
        word = _spelling(flag, kind)
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def help_text(command: str | None) -> str:
    """The usage line, then every command with its summary, or every
    option of ``command`` with its help."""
    if command not in _COMMANDS:
        about = "Find concurrency-induced cache-timing leaks in mini-IR programs."
        title = "commands:"
        rows = [(name, summary) for name, (_, summary, _) in _COMMANDS.items()]
        rows.append(("-h, --help", "show this help; COMMAND --help shows "
                     "a command's options"))
    else:
        about = _COMMANDS[command][1]
        title = "options:"
        rows = [(_spelling(flag, kind), text)
                for flag, kind, _, text in _COMMANDS[command][2]]
        rows.append(("-h, --help", "show this help"))
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join([usage(command), "", about, "", title,
                      *(f"  {name:<{width}}{text}" for name, text in rows)]) + "\n"
