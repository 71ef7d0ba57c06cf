# uqlint fixture: EFX405 — a backend reports the links it gains but never
# the ones it loses, so a link epoch never ends and a frame dropped on a
# dead connection is silently covered by the next live one.

from typing import Union


class Send:
    pass


class LinkUp:
    pass


class LinkDown:
    pass


Effect = Union[Send]
LinkChange = Union[LinkUp, LinkDown]

HANDLED_EFFECTS = (Send,)
IGNORED_EFFECTS = ()


class Backend:
    def __init__(self, core):
        self.core = core

    def on_hello(self, peer):
        for eff in self.core.link_up(peer):
            if isinstance(eff, Send):
                self.write(eff)

    def write(self, eff):
        return eff
