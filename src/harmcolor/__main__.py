"""``python -m harmcolor``: the command-line front end."""

from .cli import main_and_exit

main_and_exit()
