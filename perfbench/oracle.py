"""Distinct palindromic factors by center expansion, sharing no code with
palindromics, so the seeded random text of any seed can be checked."""


def distinct_palindrome_count(s: str) -> int:
    """Number of distinct non-empty palindromic factors of s.

    At each of the 2|s| - 1 centers the maximal palindrome is found first and
    its slices are then added from the outside in. Once a slice is already
    in the set, so are all shorter slices on the same center (they were
    added with it), and the walk stops. Random binary text keeps the
    maximal palindromes short, so this is near linear there.
    """
    seen: set[str] = set()
    n = len(s)
    for center in range(2 * n - 1):
        lo = center // 2
        hi = lo + center % 2
        while lo >= 0 and hi < n and s[lo] == s[hi]:
            lo -= 1
            hi += 1
        lo += 1
        while lo < hi:  # s[lo:hi] is the maximal palindrome on this center
            piece = s[lo:hi]
            if piece in seen:
                break
            seen.add(piece)
            lo += 1
            hi -= 1
    return len(seen)
