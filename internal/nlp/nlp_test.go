package nlp

import (
	"testing"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		name string
		text string
		want []string
	}{
		{"basic", "Traffic jam on I-10!", []string{"traffic", "jam", "10"}},
		{"stopwords", "the car is in a lot", []string{"car", "lot"}},
		{"hashtags", "#Shooting reported downtown", []string{"shooting", "reported", "downtown"}},
		{"mentions", "@jdoe was there", []string{"@jdoe", "there"}},
		{"apostrophe", "don't run", []string{"dont", "run"}},
		{"empty", "", nil},
		{"punctuation-only", "!!! ???", nil},
		{"digits", "Route 66 closed", []string{"route", "66", "closed"}},
		{"unicode-letters", "Café crowded", []string{"café", "crowded"}},
		{"single-characters", "x marks a spot", []string{"marks", "spot"}},
		{"hyphen-splits", "drive-by reported", []string{"drive", "by", "reported"}},
		{"at-inside-word", "email a@b.com", []string{"email", "com"}},
		{"whitespace-runs", "  jam\t\nahead ", []string{"jam", "ahead"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Tokenize(tt.text)
			if len(got) != len(tt.want) {
				t.Fatalf("Tokenize(%q) = %v, want %v", tt.text, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Tokenize(%q) = %v, want %v", tt.text, got, tt.want)
				}
			}
		})
	}
}

func TestKeywordMatcher(t *testing.T) {
	m := NewKeywordMatcher([]string{"shooting", "traffic jam", "Robbery"})
	tests := []struct {
		text string
		want bool
	}{
		{"major TRAFFIC backup on the bridge", true},
		{"shooting reported near 3rd street", true},
		{"robbery in progress", true},
		{"lovely weather today", false},
		{"", false},
	}
	for _, tt := range tests {
		if got := m.Matches(tt.text); got != tt.want {
			t.Errorf("Matches(%q) = %v", tt.text, got)
		}
	}
}

func TestKeywordMatcherDropsStopwordsFromPhrases(t *testing.T) {
	// "the" in a keyword phrase must not make every sentence with "the"
	// match.
	m := NewKeywordMatcher([]string{"the shooting"})
	if m.Matches("the weather is fine") {
		t.Fatal("stopword from a keyword phrase matched")
	}
	if !m.Matches("Shooting downtown") {
		t.Fatal("content word of the phrase did not match")
	}
}

func TestKeywordMatcherWithNoKeywordsMatchesNothing(t *testing.T) {
	for _, m := range []*KeywordMatcher{NewKeywordMatcher(nil), NewKeywordMatcher([]string{"", "!!!", "the"})} {
		if m.Matches("shooting traffic robbery the") {
			t.Fatal("empty keyword set matched")
		}
	}
}

func TestKeywordMatcherMatchesHashtagsAndMentions(t *testing.T) {
	m := NewKeywordMatcher([]string{"#Robbery", "@NOPD"})
	tests := []struct {
		text string
		want bool
	}{
		{"robbery on canal st", true},
		{"#ROBBERY again", true},
		{"thanks @nopd", true},
		{"nopd responded", false}, // the mention keeps its @
	}
	for _, tt := range tests {
		if got := m.Matches(tt.text); got != tt.want {
			t.Errorf("Matches(%q) = %v, want %v", tt.text, got, tt.want)
		}
	}
}
