// Package nlp provides the natural-language-processing building blocks the
// paper's social-network application uses "to capture textual features
// present in tweet text" (§IV.B): tokenization and keyword matching for the
// Twitter collector's keyword-based gathering.
package nlp

import (
	"strings"
	"unicode"
)

// stopwords trimmed to tweet-scale English function words.
var stopwords = map[string]struct{}{
	"a": {}, "an": {}, "the": {}, "and": {}, "or": {}, "of": {}, "in": {},
	"on": {}, "at": {}, "to": {}, "is": {}, "it": {}, "was": {}, "for": {},
	"with": {}, "this": {}, "that": {}, "i": {}, "you": {}, "he": {},
	"she": {}, "we": {}, "they": {}, "be": {}, "are": {}, "my": {}, "me": {},
}

// Tokenize lowercases, strips punctuation, and drops stopwords and
// single-character tokens. Hashtags keep their word ("#shooting" →
// "shooting"); @mentions are preserved with the @.
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len(tok) < 2 && !strings.HasPrefix(tok, "@") {
			return
		}
		if _, stop := stopwords[tok]; stop {
			return
		}
		tokens = append(tokens, tok)
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		case r == '@' && b.Len() == 0:
			b.WriteRune(r)
		case r == '\'':
			// drop apostrophes inside words ("don't" → "dont")
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// KeywordMatcher checks documents against a keyword set (the collector's
// "specific keywords" filter).
type KeywordMatcher struct {
	keywords map[string]struct{}
}

// NewKeywordMatcher builds a matcher; keywords are tokenized so multiword
// phrases match any of their content words.
func NewKeywordMatcher(keywords []string) *KeywordMatcher {
	m := &KeywordMatcher{keywords: make(map[string]struct{})}
	for _, k := range keywords {
		for _, tok := range Tokenize(k) {
			m.keywords[tok] = struct{}{}
		}
	}
	return m
}

// Matches reports whether any keyword token occurs in the text.
func (m *KeywordMatcher) Matches(text string) bool {
	for _, tok := range Tokenize(text) {
		if _, ok := m.keywords[tok]; ok {
			return true
		}
	}
	return false
}
