"""Services, containers, applications — and the Table 1 matrix.

Table 1 of the paper maps each (application, container) combination to the
streaming strategy it produces.  :data:`TABLE1_EXPECTED` records the
published matrix; the Table 1 experiment re-derives every cell from
simulated traffic and compares.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple

from .strategy import StreamingStrategy


class Service(Enum):
    YOUTUBE = "YouTube"
    NETFLIX = "Netflix"

    def __str__(self) -> str:
        return self.value


class Container(Enum):
    FLASH = "Flash"          # YouTube default on PCs
    FLASH_HD = "Flash HD"    # 720p YouTube over Flash
    HTML5 = "HTML5"          # webM
    SILVERLIGHT = "Silverlight"

    def __str__(self) -> str:
        return self.value


class Application(Enum):
    INTERNET_EXPLORER = "Internet Explorer"
    FIREFOX = "Mozilla Firefox"
    CHROME = "Google Chrome"
    IOS = "iOS (native)"
    ANDROID = "Android (native)"

    def __str__(self) -> str:
        return self.value

    @property
    def is_mobile(self) -> bool:
        return self in (Application.IOS, Application.ANDROID)


#: A (service, container, application) cell of Table 1.
Combo = Tuple[Service, Container, Application]

#: The streaming-strategy matrix the paper reports (Table 1).
TABLE1_EXPECTED: Dict[Combo, StreamingStrategy] = {
    # YouTube / Flash: server-paced regardless of browser
    (Service.YOUTUBE, Container.FLASH, Application.INTERNET_EXPLORER):
        StreamingStrategy.SHORT_ONOFF,
    (Service.YOUTUBE, Container.FLASH, Application.FIREFOX):
        StreamingStrategy.SHORT_ONOFF,
    (Service.YOUTUBE, Container.FLASH, Application.CHROME):
        StreamingStrategy.SHORT_ONOFF,
    # YouTube / HTML5: each application throttles its own way
    (Service.YOUTUBE, Container.HTML5, Application.INTERNET_EXPLORER):
        StreamingStrategy.SHORT_ONOFF,
    (Service.YOUTUBE, Container.HTML5, Application.FIREFOX):
        StreamingStrategy.NO_ONOFF,
    (Service.YOUTUBE, Container.HTML5, Application.CHROME):
        StreamingStrategy.LONG_ONOFF,
    (Service.YOUTUBE, Container.HTML5, Application.IOS):
        StreamingStrategy.MIXED,
    (Service.YOUTUBE, Container.HTML5, Application.ANDROID):
        StreamingStrategy.LONG_ONOFF,
    # YouTube / Flash HD: nobody limits the rate
    (Service.YOUTUBE, Container.FLASH_HD, Application.INTERNET_EXPLORER):
        StreamingStrategy.NO_ONOFF,
    (Service.YOUTUBE, Container.FLASH_HD, Application.FIREFOX):
        StreamingStrategy.NO_ONOFF,
    (Service.YOUTUBE, Container.FLASH_HD, Application.CHROME):
        StreamingStrategy.NO_ONOFF,
    # Netflix / Silverlight
    (Service.NETFLIX, Container.SILVERLIGHT, Application.INTERNET_EXPLORER):
        StreamingStrategy.SHORT_ONOFF,
    (Service.NETFLIX, Container.SILVERLIGHT, Application.FIREFOX):
        StreamingStrategy.SHORT_ONOFF,
    (Service.NETFLIX, Container.SILVERLIGHT, Application.CHROME):
        StreamingStrategy.SHORT_ONOFF,
    (Service.NETFLIX, Container.SILVERLIGHT, Application.IOS):
        StreamingStrategy.SHORT_ONOFF,
    (Service.NETFLIX, Container.SILVERLIGHT, Application.ANDROID):
        StreamingStrategy.LONG_ONOFF,
}


def container_for_video(video, service: Service) -> Container:
    """The container a video streams in for a given service."""
    if service is Service.NETFLIX:
        return Container.SILVERLIGHT
    if video.container == "webm":
        return Container.HTML5
    if video.container == "flv" and video.resolution == "720p":
        return Container.FLASH_HD
    return Container.FLASH
