"""Test-only conversions between tuple words and the packed integer codes
of ainfbar.bar: n fields of bar.bits bits, the first letter highest."""


def pack(bar, word) -> int:
    code = 0
    for u in word:
        code = (code << bar.bits) | u
    return code


def unpack(bar, code: int) -> tuple:
    mask = (1 << bar.bits) - 1
    word = []
    while code:
        word.append(code & mask)
        code >>= bar.bits
    return tuple(reversed(word))


def pack_cochain(bar, cochain: dict) -> dict:
    return {pack(bar, w): c for w, c in cochain.items()}


def unpack_cochain(bar, cochain: dict) -> dict:
    return {unpack(bar, w): c for w, c in cochain.items()}
