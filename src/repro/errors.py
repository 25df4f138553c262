"""Exception hierarchy for the PPM reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class.  The subclasses mirror the failure modes
the paper discusses: authentication failures at channel creation (section 3),
adoption refusal across users (section 4), lost connections and crashed
hosts (section 5), and plain bad requests.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A configuration value is out of range or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""


class NoSuchHostError(ReproError):
    """A named host does not exist in the network."""


class HostDownError(ReproError):
    """The target host has crashed or is unreachable."""


class UnreachableHostError(HostDownError):
    """No network path currently exists to the target host."""


class ConnectionClosedError(ReproError):
    """A stream connection was used after it closed or broke."""


class RegistryError(ReproError):
    """The realnet host registry file exists but is not a registry."""


class NoSuchProcessError(ReproError):
    """A pid (or <host, pid> identity) does not name a live process."""


class ProcessPermissionError(ReproError):
    """A signal or control request was denied by uid checks."""


class AdoptionError(ReproError):
    """Adoption failed; the process and the PPM belong to different users."""


class AuthenticationError(ReproError):
    """Channel-creation authentication failed (user-level masquerade)."""


class PPMError(ReproError):
    """A PPM-level request could not be satisfied."""


class NoLPMError(PPMError):
    """No local process manager is available where one was required."""


class RequestTimeoutError(PPMError):
    """A request's handler never received a response (section 6)."""


class RecoveryError(PPMError):
    """Crash recovery could not reach any host on the recovery list."""
