"""A minimal simulated filesystem.

Only what the PPM needs from disk: home directories holding the
``.recovery`` file (the CCS priority list of section 5) and ``.rhosts``
(the 4.3BSD remote-access flexibility of section 4), plus the optional
stable-storage file of the process manager daemon.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class SimFilesystem:
    """Path -> text content, per host."""

    def __init__(self) -> None:
        self._files: Dict[str, str] = {}
        #: Bumped on every mutation; caches keyed on filesystem content
        #: (the pmd auth cache) fold this into their incarnation key.
        self.version = 0

    def write(self, path: str, content: str) -> None:
        self._files[path] = content
        self.version += 1

    def read(self, path: str) -> Optional[str]:
        return self._files.get(path)

    def exists(self, path: str) -> bool:
        return path in self._files

    def remove(self, path: str) -> None:
        if self._files.pop(path, None) is not None:
            self.version += 1

    # ------------------------------------------------------------------
    # Home-directory conventions
    # ------------------------------------------------------------------

    @staticmethod
    def home_of(user: str) -> str:
        return "/usr/%s" % (user,)

    def write_recovery_file(self, user: str, hosts: List[str]) -> None:
        """``.recovery``: hosts in decreasing order of CCS priority."""
        self.write("%s/.recovery" % (self.home_of(user),),
                   "\n".join(hosts) + ("\n" if hosts else ""))

    def read_recovery_file(self, user: str) -> List[str]:
        content = self.read("%s/.recovery" % (self.home_of(user),))
        if content is None:
            return []
        return [line.strip() for line in content.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]

    def write_rhosts(self, user: str, entries: List[str]) -> None:
        """``.rhosts``: one ``host user`` (or just ``host``) per line."""
        self.write("%s/.rhosts" % (self.home_of(user),),
                   "\n".join(entries) + ("\n" if entries else ""))

    def read_rhosts(self, user: str) -> List[str]:
        content = self.read("%s/.rhosts" % (self.home_of(user),))
        if content is None:
            return []
        return [line.strip() for line in content.splitlines()
                if line.strip()]
