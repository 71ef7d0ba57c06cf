# uqlint fixture: good twin of bad/efx405_link_event_never_emitted.py —
# the backend reports both halves of every link's life.

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

    def on_close(self, peer):
        self.core.link_down(peer)

    def write(self, eff):
        return eff
